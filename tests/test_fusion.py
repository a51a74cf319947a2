import numpy as np
import pytest

from memefuse import fusion


class TestFuseFirstAxis:
    def test_rows_stack_bitwise(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(196, 768)).astype(np.float32)
        b = rng.normal(size=(2, 768)).astype(np.float32)
        fused = fusion.fuse_first_axis(a, b)
        assert fused.values.shape == (198, 768)
        np.testing.assert_array_equal(fused.values[:196], a)
        np.testing.assert_array_equal(fused.values[196:], b)

    def test_two_vectors_as_rows(self):
        a = np.ones((1, 768))
        b = np.zeros((1, 768))
        fused = fusion.fuse_first_axis(a, b, a_tag="caption", b_tag="text")
        assert fused.values.shape == (2, 768)
        assert fused.provenance == ("caption", "text")

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            fusion.fuse_first_axis(np.zeros((4, 64)), np.zeros((3, 32)))

    def test_order_preserved(self):
        a = np.full((2, 3), 1.0)
        b = np.full((1, 3), 2.0)
        ab = fusion.fuse_first_axis(a, b)
        ba = fusion.fuse_first_axis(b, a)
        assert not np.array_equal(ab.values, ba.values)
        assert ab.provenance == ("image", "image", "text")
        assert ba.provenance == ("image", "text", "text")


class TestFusedRepresentation:
    def test_provenance_must_cover_rows(self):
        with pytest.raises(ValueError):
            fusion.FusedRepresentation(np.zeros((3, 2)), ("image", "text"))

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            fusion.FusedRepresentation(np.zeros((1, 2)), ("audio",))


class TestProject:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 4))
        np.testing.assert_array_equal(fusion.project(x, 4, np.eye(4)), x)

    def test_shape_and_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3))
        w = rng.normal(size=(3, 5))
        out = fusion.project(x, 5, w)
        assert out.shape == (2, 5)
        expect = np.array([[sum(x[i, k] * w[k, j] for k in range(3)) for j in range(5)]
                           for i in range(2)])
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_bad_params_shape(self):
        with pytest.raises(ValueError):
            fusion.project(np.zeros((2, 3)), 5, np.zeros((4, 5)))


class TestAssemble:
    def test_imgtxt_row_count(self):
        rng = np.random.default_rng(2)
        img = rng.normal(size=(4, 64))
        tok = rng.normal(size=(3, 64))
        fused = fusion.assemble_variant_input("imgtxt", img=img, txt_tokens=tok)
        assert fused.values.shape == (7, 64)
        assert fused.provenance == ("image",) * 4 + ("text",) * 3

    def test_imgsen_projects_sentence_down(self):
        rng = np.random.default_rng(3)
        img = rng.normal(size=(4, 64))
        sent = rng.normal(size=(768,))
        proj = {"768to64": fusion.init_projection(768, 64, rng, dtype=np.float64)}
        fused = fusion.assemble_variant_input(
            "imgsen", img=img, txt_sentence=sent, projections=proj, d_target=64)
        assert fused.values.shape == (5, 64)
        np.testing.assert_array_equal(fused.values[:4], img)
        np.testing.assert_allclose(fused.values[4], sent @ proj["768to64"], atol=1e-12)

    def test_imgsen_default_target_is_wider_side(self):
        rng = np.random.default_rng(4)
        img = rng.normal(size=(4, 64))
        sent = rng.normal(size=(768,))
        proj = {"64to768": fusion.init_projection(64, 768, rng, dtype=np.float64)}
        fused = fusion.assemble_variant_input(
            "imgsen", img=img, txt_sentence=sent, projections=proj)
        assert fused.values.shape == (5, 768)
        np.testing.assert_array_equal(fused.values[4], sent)

    def test_capsen_two_rows(self):
        rng = np.random.default_rng(5)
        cap = rng.normal(size=(768,))
        txt = rng.normal(size=(768,))
        fused = fusion.assemble_variant_input("capsen", caption_sentence=cap, txt_sentence=txt)
        assert fused.values.shape == (2, 768)
        assert fused.provenance == ("caption", "text")
        np.testing.assert_array_equal(fused.values[0], cap)
        np.testing.assert_array_equal(fused.values[1], txt)

    def test_missing_representation_named(self):
        with pytest.raises(ValueError, match="txt_sentence"):
            fusion.assemble_variant_input("imgsen", img=np.zeros((4, 64)))
        with pytest.raises(ValueError, match="caption_sentence"):
            fusion.assemble_variant_input("capsen", txt_sentence=np.zeros(768))

    def test_missing_projection_named(self):
        with pytest.raises(ValueError, match="768to64"):
            fusion.assemble_variant_input(
                "imgsen", img=np.zeros((4, 64)), txt_sentence=np.zeros(768), d_target=64)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            fusion.assemble_variant_input("imgcap", img=np.zeros((1, 4)))
