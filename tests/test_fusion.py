import numpy as np
import pytest

from memefuse import VARIANTS, fusion


class TestFuseFirstAxis:
    def test_rows_stack_bitwise(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(196, 768)).astype(np.float32)
        b = rng.normal(size=(2, 768)).astype(np.float32)
        fused = fusion.fuse_first_axis(a, b)
        assert fused.shape == (198, 768)
        np.testing.assert_array_equal(fused[:196], a)
        np.testing.assert_array_equal(fused[196:], b)

    def test_two_vectors_as_rows(self):
        a = np.ones((1, 768))
        b = np.zeros((1, 768))
        fused = fusion.fuse_first_axis(a, b)
        assert fused.shape == (2, 768)

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            fusion.fuse_first_axis(np.zeros((4, 64)), np.zeros((3, 32)))

    def test_batch_axes_must_agree(self):
        with pytest.raises(ValueError, match="batch axes"):
            fusion.fuse_first_axis(np.zeros((2, 4, 8)), np.zeros((3, 1, 8)))
        with pytest.raises(ValueError, match="batch axes"):
            fusion.fuse_first_axis(np.zeros((2, 4, 8)), np.zeros((1, 8)))

    def test_order_preserved(self):
        a = np.full((2, 3), 1.0)
        b = np.full((1, 3), 2.0)
        ab = fusion.fuse_first_axis(a, b)
        ba = fusion.fuse_first_axis(b, a)
        np.testing.assert_array_equal(ab, [[1.0] * 3, [1.0] * 3, [2.0] * 3])
        np.testing.assert_array_equal(ba, [[2.0] * 3, [1.0] * 3, [1.0] * 3])


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
        assert fused.shape == (7, 64)
        np.testing.assert_array_equal(fused[:4], img)
        np.testing.assert_array_equal(fused[4:], tok)

    def test_imgsen_projects_sentence_down(self):
        rng = np.random.default_rng(3)
        img = rng.normal(size=(4, 64))
        sent = rng.normal(size=(768,))
        proj = {"768to64": fusion.init_projection(768, 64, rng, dtype=np.float64)}
        fused = fusion.assemble_variant_input(
            "imgsen", img=img, txt_sentence=sent, projections=proj, d_target=64)
        assert fused.shape == (5, 64)
        np.testing.assert_array_equal(fused[:4], img)
        np.testing.assert_allclose(fused[4], sent @ proj["768to64"], atol=1e-12)

    def test_imgsen_default_target_is_wider_side(self):
        rng = np.random.default_rng(4)
        img = rng.normal(size=(4, 64))
        sent = rng.normal(size=(768,))
        proj = {"64to768": fusion.init_projection(64, 768, rng, dtype=np.float64)}
        fused = fusion.assemble_variant_input(
            "imgsen", img=img, txt_sentence=sent, projections=proj)
        assert fused.shape == (5, 768)
        np.testing.assert_array_equal(fused[4], sent)

    def test_capsen_two_rows(self):
        rng = np.random.default_rng(5)
        cap = rng.normal(size=(768,))
        txt = rng.normal(size=(768,))
        fused = fusion.assemble_variant_input("capsen", caption_sentence=cap, txt_sentence=txt)
        assert fused.shape == (2, 768)
        np.testing.assert_array_equal(fused[0], cap)
        np.testing.assert_array_equal(fused[1], txt)

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


class TestBatchedAssemble:
    """(B, ., .) inputs fuse each record bit for bit as a single call does."""

    @staticmethod
    def _inputs(kind, batch):
        rng = np.random.default_rng(7)
        proj = {"768to64": fusion.init_projection(768, 64, rng),
                "32to48": fusion.init_projection(32, 48, rng, dtype=np.float64)}
        if kind == "imgtxt":
            parts = {"img": rng.normal(size=(batch, 4, 64)).astype(np.float32),
                     "txt_tokens": rng.normal(size=(batch, 3, 64)).astype(np.float32)}
        elif kind == "imgsen":
            # the toy pipeline's case: float64 sentences, a float32 projection
            # down to the image width
            parts = {"img": rng.normal(size=(batch, 4, 64)),
                     "txt_sentence": rng.normal(size=(batch, 768)), "d_target": 64}
        else:
            # the imported case: float64 captions projected up to the text width
            parts = {"caption_sentence": rng.normal(size=(batch, 32)),
                     "txt_sentence": rng.normal(size=(batch, 48))}
        return parts, proj

    @pytest.mark.parametrize("kind", VARIANTS)
    def test_batch_equals_single_calls(self, kind):
        parts, proj = self._inputs(kind, batch=5)
        batched = fusion.assemble_variant_input(kind, projections=proj, **parts)
        for i in range(5):
            one = {k: v if k == "d_target" else v[i] for k, v in parts.items()}
            single = fusion.assemble_variant_input(kind, projections=proj, **one)
            assert batched[i].shape == single.shape
            assert batched[i].dtype == single.dtype
            assert batched[i].tobytes() == single.tobytes()

    def test_sentence_is_one_row_by_role(self):
        # a (B, d) sentence batch fuses as one row per record, not as B rows
        parts, proj = self._inputs("capsen", batch=4)
        fused = fusion.assemble_variant_input("capsen", projections=proj, **parts)
        assert fused.shape == (4, 2, 48)
