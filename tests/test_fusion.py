import numpy as np
import pytest

from memefuse import VARIANTS
from memefuse.pipeline import assemble_variant_input, init_projection


class TestFuseFirstAxis:
    """The two parts stack along the row axis, bit for bit and in order."""

    def test_rows_stack_bitwise(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(196, 768)).astype(np.float32)
        b = rng.normal(size=(2, 768)).astype(np.float32)
        fused = assemble_variant_input(a, b)
        assert fused.shape == (198, 768)
        assert fused.dtype == np.float32
        np.testing.assert_array_equal(fused[:196], a)
        np.testing.assert_array_equal(fused[196:], b)

    def test_two_vectors_as_rows(self):
        a = np.ones((1, 768))
        b = np.zeros((1, 768))
        fused = assemble_variant_input(a, b)
        assert fused.shape == (2, 768)

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError, match="width mismatch: 64 vs 32"):
            assemble_variant_input(np.zeros((4, 64)), np.zeros((3, 32)))

    def test_batch_axes_must_agree(self):
        with pytest.raises(ValueError, match="batch axes"):
            assemble_variant_input(np.zeros((2, 4, 8)), np.zeros((3, 1, 8)))
        with pytest.raises(ValueError, match="batch axes"):
            assemble_variant_input(np.zeros((2, 4, 8)), np.zeros((1, 8)))
        with pytest.raises(ValueError, match="batch axes"):
            assemble_variant_input(np.zeros((2, 4, 8)), np.zeros((3, 1, 8)))

    def test_order_preserved(self):
        a = np.full((2, 3), 1.0)
        b = np.full((1, 3), 2.0)
        ab = assemble_variant_input(a, b)
        ba = assemble_variant_input(b, a)
        np.testing.assert_array_equal(ab, [[1.0] * 3, [1.0] * 3, [2.0] * 3])
        np.testing.assert_array_equal(ba, [[2.0] * 3, [1.0] * 3, [1.0] * 3])


class TestProject:
    """A (d_from, d_to) projection maps the part whose width is d_from."""

    def test_identity(self):
        # an identity block pads the narrow part's rows with zero columns
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=(2, 6))
        fused = assemble_variant_input(x, y, projection=np.eye(4, 6))
        np.testing.assert_array_equal(fused[:5, :4], x)
        np.testing.assert_array_equal(fused[:5, 4:], 0.0)
        np.testing.assert_array_equal(fused[5:], y)

    def test_shape_and_oracle(self):
        # the imported capsen case: a narrower caption sentence mapped up to
        # the text width
        rng = np.random.default_rng(1)
        cap = rng.normal(size=(32,))
        txt = rng.normal(size=(48,))
        w = rng.normal(size=(32, 48))
        fused = assemble_variant_input(cap[None], txt[None], projection=w)
        assert fused.shape == (2, 48)
        expect = [sum(cap[k] * w[k, j] for k in range(32)) for j in range(48)]
        np.testing.assert_allclose(fused[0], expect, atol=1e-12)
        np.testing.assert_array_equal(fused[1], txt)

    def test_bad_params_shape(self):
        for shape in [(768, 32), (64, 64), (32, 768), (64,)]:
            with pytest.raises(ValueError, match="maps neither width 64 to 768 nor 768 to 64"):
                assemble_variant_input(np.zeros((4, 64)), np.zeros((1, 768)),
                                       projection=np.zeros(shape))

    def test_unused_when_widths_agree(self):
        img = np.ones((4, 8))
        tok = np.full((3, 8), 2.0)
        fused = assemble_variant_input(img, tok, projection=np.zeros((8, 16)))
        np.testing.assert_array_equal(fused, np.concatenate([img, tok]))


class TestAssemble:
    def test_imgtxt_row_count(self):
        rng = np.random.default_rng(2)
        img = rng.normal(size=(4, 64))
        tok = rng.normal(size=(3, 64))
        fused = assemble_variant_input(img, tok)
        assert fused.shape == (7, 64)
        np.testing.assert_array_equal(fused[:4], img)
        np.testing.assert_array_equal(fused[4:], tok)

    def test_imgsen_projects_sentence_down(self):
        rng = np.random.default_rng(3)
        img = rng.normal(size=(4, 64))
        sent = rng.normal(size=(768,))
        proj = init_projection(768, 64, rng).astype(np.float64)
        fused = assemble_variant_input(img, sent[None], projection=proj)
        assert fused.shape == (5, 64)
        np.testing.assert_array_equal(fused[:4], img)
        np.testing.assert_allclose(fused[4], sent @ proj, atol=1e-12)

    def test_imgsen_projects_image_up(self):
        rng = np.random.default_rng(4)
        img = rng.normal(size=(4, 64))
        sent = rng.normal(size=(768,))
        proj = init_projection(64, 768, rng).astype(np.float64)
        fused = assemble_variant_input(img, sent[None], projection=proj)
        assert fused.shape == (5, 768)
        np.testing.assert_allclose(fused[:4], img @ proj, atol=1e-12)
        np.testing.assert_array_equal(fused[4], sent)

    def test_capsen_two_rows(self):
        rng = np.random.default_rng(5)
        cap = rng.normal(size=(768,))
        txt = rng.normal(size=(768,))
        fused = assemble_variant_input(cap[None], txt[None])
        assert fused.shape == (2, 768)
        np.testing.assert_array_equal(fused[0], cap)
        np.testing.assert_array_equal(fused[1], txt)

    def test_missing_projection_named(self):
        with pytest.raises(ValueError, match="width mismatch: 64 vs 768, and no projection"):
            assemble_variant_input(np.zeros((4, 64)), np.zeros((1, 768)))


class TestBatchedAssemble:
    """(B, ., .) inputs fuse each record bit for bit as a single call does."""

    @staticmethod
    def _inputs(kind, batch):
        rng = np.random.default_rng(7)
        if kind == "imgtxt":
            parts = (rng.normal(size=(batch, 4, 64)).astype(np.float32),
                     rng.normal(size=(batch, 3, 64)).astype(np.float32))
            proj = None
        elif kind == "imgsen":
            # the toy pipeline's case: float64 sentences, a float32 projection
            # down to the image width
            parts = (rng.normal(size=(batch, 4, 64)), rng.normal(size=(batch, 1, 768)))
            proj = init_projection(768, 64, rng)
        else:
            # the imported case: float64 captions projected up to the text width
            parts = (rng.normal(size=(batch, 1, 32)), rng.normal(size=(batch, 1, 48)))
            proj = init_projection(32, 48, rng).astype(np.float64)
        return parts, proj

    @pytest.mark.parametrize("kind", VARIANTS)
    def test_batch_equals_single_calls(self, kind):
        parts, proj = self._inputs(kind, batch=5)
        batched = assemble_variant_input(*parts, projection=proj)
        for i in range(5):
            single = assemble_variant_input(*(part[i] for part in parts), projection=proj)
            assert batched[i].shape == single.shape
            assert batched[i].dtype == single.dtype
            assert batched[i].tobytes() == single.tobytes()

    def test_sentence_is_one_row_by_role(self):
        # a (B, 1, d) sentence batch fuses as one row per record, not as B rows
        parts, proj = self._inputs("capsen", batch=4)
        fused = assemble_variant_input(*parts, projection=proj)
        assert fused.shape == (4, 2, 48)
