#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace pac {
namespace {

TEST(TensorTest, ConstructionAndShape) {
  Tensor t({2, 3, 4});
  EXPECT_TRUE(t.defined());
  EXPECT_EQ(t.dim(), 3);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(2), 4);
  EXPECT_EQ(t.numel(), 24);
  EXPECT_EQ(t.byte_size(), 24U * sizeof(float));
}

TEST(TensorTest, DefaultIsUndefined) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_THROW(t.data(), InvalidArgument);
}

TEST(TensorTest, FillAndAt) {
  Tensor t = Tensor::full({2, 2}, 3.0F);
  EXPECT_EQ(t.at({0, 0}), 3.0F);
  t.at({1, 1}) = 5.0F;
  EXPECT_EQ(t.at({1, 1}), 5.0F);
  EXPECT_THROW(t.at({2, 0}), InvalidArgument);
  EXPECT_THROW(t.at({0}), InvalidArgument);
}

TEST(TensorTest, CopyIsShallowCloneIsDeep) {
  Tensor a = Tensor::zeros({4});
  Tensor b = a;             // shares storage
  Tensor c = a.clone();     // deep copy
  a.at({0}) = 7.0F;
  EXPECT_EQ(b.at({0}), 7.0F);
  EXPECT_EQ(c.at({0}), 0.0F);
  EXPECT_TRUE(a.shares_storage(b));
  EXPECT_FALSE(a.shares_storage(c));
}

TEST(TensorTest, ReshapeSharesStorage) {
  Tensor a = Tensor::zeros({2, 6});
  Tensor b = a.reshape({3, 4});
  EXPECT_TRUE(a.shares_storage(b));
  b.at({0, 0}) = 1.0F;
  EXPECT_EQ(a.at({0, 0}), 1.0F);
  EXPECT_THROW(a.reshape({5, 5}), InvalidArgument);
}

TEST(TensorTest, Slice0IsView) {
  Rng rng(3);
  Tensor a = Tensor::randn({4, 3}, rng);
  Tensor s = a.slice0(1, 3);
  EXPECT_EQ(s.size(0), 2);
  EXPECT_EQ(s.size(1), 3);
  EXPECT_EQ(s.at({0, 0}), a.at({1, 0}));
  s.at({0, 0}) = 99.0F;
  EXPECT_EQ(a.at({1, 0}), 99.0F);
  EXPECT_THROW(a.slice0(2, 5), InvalidArgument);
}

TEST(TensorTest, AxpyAndScale) {
  Tensor a = Tensor::full({3}, 1.0F);
  Tensor b = Tensor::full({3}, 2.0F);
  a.axpy_(0.5F, b);
  EXPECT_FLOAT_EQ(a.at({0}), 2.0F);
  a.scale_(2.0F);
  EXPECT_FLOAT_EQ(a.at({0}), 4.0F);
  Tensor c = Tensor::zeros({4});
  EXPECT_THROW(a.add_(c), InvalidArgument);
}

TEST(TensorTest, FromVector) {
  Tensor t = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at({1, 0}), 3.0F);
  EXPECT_THROW(Tensor::from_vector({2, 2}, {1, 2, 3}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// GEMM correctness against a naive reference for all transpose combinations.
// ---------------------------------------------------------------------------

class GemmTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool, bool>> {};

TEST_P(GemmTest, MatchesNaiveReference) {
  const auto [m, n, k, ta, tb] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 100 + n * 10 + k + (ta ? 1 : 0) +
                                     (tb ? 2 : 0)));
  Tensor a = ta ? Tensor::randn({k, m}, rng) : Tensor::randn({m, k}, rng);
  Tensor b = tb ? Tensor::randn({n, k}, rng) : Tensor::randn({k, n}, rng);
  Tensor c = Tensor::zeros({m, n});
  ops::gemm_raw(a.data(), b.data(), c.data(), m, n, k, ta, tb, 1.0F, 0.0F);

  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float ref = 0.0F;
      for (int p = 0; p < k; ++p) {
        const float av = ta ? a.at({p, i}) : a.at({i, p});
        const float bv = tb ? b.at({j, p}) : b.at({p, j});
        ref += av * bv;
      }
      EXPECT_NEAR(c.at({i, j}), ref, 1e-3F)
          << "at (" << i << "," << j << ") m=" << m << " n=" << n
          << " k=" << k << " ta=" << ta << " tb=" << tb;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Combine(::testing::Values(1, 3, 17), ::testing::Values(1, 5, 16),
                       ::testing::Values(1, 4, 33), ::testing::Bool(),
                       ::testing::Bool()));

TEST(GemmTest, AlphaBetaSemantics) {
  Tensor a = Tensor::from_vector({1, 1}, {2.0F});
  Tensor b = Tensor::from_vector({1, 1}, {3.0F});
  Tensor c = Tensor::from_vector({1, 1}, {10.0F});
  ops::gemm_raw(a.data(), b.data(), c.data(), 1, 1, 1, false, false, 2.0F,
                0.5F);
  EXPECT_FLOAT_EQ(c.at({0, 0}), 2.0F * 6.0F + 0.5F * 10.0F);
}

TEST(GemmTest, LargeMatmulParallelPathMatchesSerial) {
  Rng rng(11);
  Tensor a = Tensor::randn({64, 96}, rng);
  Tensor b = Tensor::randn({96, 80}, rng);
  Tensor c1 = ops::matmul(a, b);  // large enough to hit the pooled path
  Tensor c2 = Tensor::zeros({64, 80});
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 80; ++j) {
      float acc = 0.0F;
      for (int p = 0; p < 96; ++p) acc += a.at({i, p}) * b.at({p, j});
      c2.at({i, j}) = acc;
    }
  }
  EXPECT_LT(ops::max_abs_diff(c1, c2), 1e-3F);
}

TEST(OpsTest, MatmulShapeChecks) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({4, 5});
  EXPECT_THROW(ops::matmul(a, b), InvalidArgument);
  EXPECT_THROW(ops::matmul_nt(a, b), InvalidArgument);
  EXPECT_THROW(ops::matmul_tn(a, b), InvalidArgument);
}

TEST(OpsTest, MatmulTnNtConsistency) {
  Rng rng(5);
  Tensor a = Tensor::randn({4, 6}, rng);
  Tensor b = Tensor::randn({6, 3}, rng);
  // (A @ B) == matmul_nt(A, B^T) == matmul_tn(A^T, B)
  Tensor ab = ops::matmul(a, b);
  Tensor ab2 = ops::matmul_nt(a, ops::transpose_2d(b));
  Tensor ab3 = ops::matmul_tn(ops::transpose_2d(a), b);
  EXPECT_LT(ops::max_abs_diff(ab, ab2), 1e-4F);
  EXPECT_LT(ops::max_abs_diff(ab, ab3), 1e-4F);
}

TEST(OpsTest, ElementwiseOps) {
  Tensor a = Tensor::from_vector({3}, {1, 2, 3});
  Tensor b = Tensor::from_vector({3}, {4, 5, 6});
  EXPECT_FLOAT_EQ(ops::add(a, b).at({1}), 7.0F);
  EXPECT_FLOAT_EQ(ops::sub(a, b).at({1}), -3.0F);
  EXPECT_FLOAT_EQ(ops::mul(a, b).at({1}), 10.0F);
  EXPECT_FLOAT_EQ(ops::scale(a, 3.0F).at({2}), 9.0F);
}

TEST(OpsTest, AddBiasAndBiasGrad) {
  Tensor x = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bias = Tensor::from_vector({3}, {10, 20, 30});
  Tensor y = ops::add_bias(x, bias);
  EXPECT_FLOAT_EQ(y.at({0, 0}), 11.0F);
  EXPECT_FLOAT_EQ(y.at({1, 2}), 36.0F);

  Tensor gb = Tensor::zeros({3});
  ops::bias_grad_acc(gb, x);
  EXPECT_FLOAT_EQ(gb.at({0}), 5.0F);
  EXPECT_FLOAT_EQ(gb.at({2}), 9.0F);
}

TEST(OpsTest, ReluForwardBackward) {
  Tensor x = Tensor::from_vector({4}, {-1.0F, 0.0F, 2.0F, -3.0F});
  Tensor y = ops::relu(x);
  EXPECT_FLOAT_EQ(y.at({0}), 0.0F);
  EXPECT_FLOAT_EQ(y.at({2}), 2.0F);
  Tensor dy = Tensor::full({4}, 1.0F);
  Tensor dx = ops::relu_backward(dy, x);
  EXPECT_FLOAT_EQ(dx.at({0}), 0.0F);
  EXPECT_FLOAT_EQ(dx.at({2}), 1.0F);
}

TEST(OpsTest, GeluMatchesFiniteDifference) {
  Tensor x = Tensor::from_vector({5}, {-2.0F, -0.5F, 0.0F, 0.7F, 2.0F});
  Tensor dy = Tensor::full({5}, 1.0F);
  Tensor dx = ops::gelu_backward(dy, x);
  const float h = 1e-3F;
  for (int i = 0; i < 5; ++i) {
    Tensor xp = x.clone();
    Tensor xm = x.clone();
    xp.at({i}) += h;
    xm.at({i}) -= h;
    const float num =
        (ops::gelu(xp).at({i}) - ops::gelu(xm).at({i})) / (2.0F * h);
    EXPECT_NEAR(dx.at({i}), num, 1e-2F);
  }
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Rng rng(8);
  Tensor x = Tensor::randn({5, 7}, rng, 3.0F);
  Tensor y = ops::softmax_lastdim(x);
  for (int r = 0; r < 5; ++r) {
    float s = 0.0F;
    for (int c = 0; c < 7; ++c) {
      s += y.at({r, c});
      EXPECT_GT(y.at({r, c}), 0.0F);
    }
    EXPECT_NEAR(s, 1.0F, 1e-5F);
  }
}

TEST(OpsTest, SoftmaxIsShiftInvariant) {
  Tensor x = Tensor::from_vector({1, 3}, {1.0F, 2.0F, 3.0F});
  Tensor xs = Tensor::from_vector({1, 3}, {101.0F, 102.0F, 103.0F});
  EXPECT_LT(ops::max_abs_diff(ops::softmax_lastdim(x),
                              ops::softmax_lastdim(xs)),
            1e-5F);
}

TEST(OpsTest, SoftmaxBackwardMatchesFiniteDifference) {
  Rng rng(13);
  Tensor x = Tensor::randn({2, 4}, rng);
  Tensor y = ops::softmax_lastdim(x);
  Tensor dy = Tensor::randn({2, 4}, rng);
  Tensor dx = ops::softmax_backward(dy, y);
  const float h = 1e-3F;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 4; ++c) {
      Tensor xp = x.clone();
      Tensor xm = x.clone();
      xp.at({r, c}) += h;
      xm.at({r, c}) -= h;
      Tensor yp = ops::softmax_lastdim(xp);
      Tensor ym = ops::softmax_lastdim(xm);
      // loss = sum(dy * y)
      float lp = 0.0F;
      float lm = 0.0F;
      for (int j = 0; j < 4; ++j) {
        lp += dy.at({r, j}) * yp.at({r, j});
        lm += dy.at({r, j}) * ym.at({r, j});
      }
      EXPECT_NEAR(dx.at({r, c}), (lp - lm) / (2.0F * h), 2e-2F);
    }
  }
}

TEST(OpsTest, LayerNormNormalizesRows) {
  Rng rng(21);
  Tensor x = Tensor::randn({4, 16}, rng, 5.0F);
  Tensor gamma = Tensor::full({16}, 1.0F);
  Tensor beta = Tensor::zeros({16});
  ops::LayerNormContext ctx;
  Tensor y = ops::layernorm(x, gamma, beta, 1e-5F, &ctx);
  for (int r = 0; r < 4; ++r) {
    float m = 0.0F;
    for (int c = 0; c < 16; ++c) m += y.at({r, c});
    m /= 16.0F;
    float var = 0.0F;
    for (int c = 0; c < 16; ++c) {
      var += (y.at({r, c}) - m) * (y.at({r, c}) - m);
    }
    var /= 16.0F;
    EXPECT_NEAR(m, 0.0F, 1e-4F);
    EXPECT_NEAR(var, 1.0F, 1e-2F);
  }
}

TEST(OpsTest, LayerNormBackwardMatchesFiniteDifference) {
  Rng rng(31);
  const int rows = 2;
  const int cols = 6;
  Tensor x = Tensor::randn({rows, cols}, rng);
  Tensor gamma = Tensor::uniform({cols}, rng, 0.5F, 1.5F);
  Tensor beta = Tensor::randn({cols}, rng, 0.1F);
  Tensor dy = Tensor::randn({rows, cols}, rng);

  ops::LayerNormContext ctx;
  ops::layernorm(x, gamma, beta, 1e-5F, &ctx);
  Tensor dgamma = Tensor::zeros({cols});
  Tensor dbeta = Tensor::zeros({cols});
  Tensor dx = ops::layernorm_backward(dy, gamma, ctx, dgamma, dbeta);

  auto loss = [&](const Tensor& xi, const Tensor& gi, const Tensor& bi) {
    Tensor y = ops::layernorm(xi, gi, bi, 1e-5F, nullptr);
    float l = 0.0F;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      l += y.data()[i] * dy.data()[i];
    }
    return l;
  };

  const float h = 1e-2F;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      Tensor xp = x.clone();
      Tensor xm = x.clone();
      xp.at({r, c}) += h;
      xm.at({r, c}) -= h;
      const float num = (loss(xp, gamma, beta) - loss(xm, gamma, beta)) /
                        (2.0F * h);
      EXPECT_NEAR(dx.at({r, c}), num, 5e-2F) << "dx at " << r << "," << c;
    }
  }
  for (int c = 0; c < cols; ++c) {
    Tensor gp = gamma.clone();
    Tensor gm = gamma.clone();
    gp.at({c}) += h;
    gm.at({c}) -= h;
    const float num = (loss(x, gp, beta) - loss(x, gm, beta)) / (2.0F * h);
    EXPECT_NEAR(dgamma.at({c}), num, 5e-2F) << "dgamma at " << c;

    Tensor bp = beta.clone();
    Tensor bm = beta.clone();
    bp.at({c}) += h;
    bm.at({c}) -= h;
    const float numb = (loss(x, gamma, bp) - loss(x, gamma, bm)) / (2.0F * h);
    EXPECT_NEAR(dbeta.at({c}), numb, 5e-2F) << "dbeta at " << c;
  }
}

TEST(OpsTest, LayerNormBackwardOverPooledRowsMatchesInlineRowBlocks) {
  // 1024 rows of 64 features split across the thread pool; 128-row blocks
  // stay under the dispatch threshold and run inline.  dx rows are
  // independent (exact); dgamma/dbeta sum the same terms in another order.
  Rng rng(37);
  const std::int64_t rows = 1024;
  const std::int64_t cols = 64;
  const std::int64_t block = 128;
  Tensor x = Tensor::randn({rows, cols}, rng);
  Tensor gamma = Tensor::uniform({cols}, rng, 0.5F, 1.5F);
  Tensor beta = Tensor::randn({cols}, rng, 0.1F);
  Tensor dy = Tensor::randn({rows, cols}, rng);

  ops::LayerNormContext ctx;
  ops::layernorm(x, gamma, beta, 1e-5F, &ctx);
  Tensor dgamma = Tensor::zeros({cols});
  Tensor dbeta = Tensor::zeros({cols});
  Tensor dx = ops::layernorm_backward(dy, gamma, ctx, dgamma, dbeta);

  Tensor block_dgamma = Tensor::zeros({cols});
  Tensor block_dbeta = Tensor::zeros({cols});
  for (std::int64_t r = 0; r < rows; r += block) {
    ops::LayerNormContext block_ctx;
    ops::layernorm(x.slice0(r, r + block).clone(), gamma, beta, 1e-5F,
                   &block_ctx);
    Tensor block_dx =
        ops::layernorm_backward(dy.slice0(r, r + block).clone(), gamma,
                                block_ctx, block_dgamma, block_dbeta);
    EXPECT_EQ(ops::max_abs_diff(block_dx, dx.slice0(r, r + block).clone()),
              0.0F)
        << "rows " << r;
  }
  EXPECT_LT(ops::max_abs_diff(block_dgamma, dgamma), 1e-3F);
  EXPECT_LT(ops::max_abs_diff(block_dbeta, dbeta), 1e-3F);
}

TEST(OpsTest, EmbeddingGatherAndScatter) {
  Tensor table = Tensor::from_vector({3, 2}, {0, 1, 10, 11, 20, 21});
  Tensor ids = Tensor::from_vector({2, 2}, {2, 0, 1, 1});
  Tensor y = ops::embedding(table, ids);
  EXPECT_EQ(y.dim(), 3);
  EXPECT_FLOAT_EQ(y.at({0, 0, 0}), 20.0F);
  EXPECT_FLOAT_EQ(y.at({0, 1, 1}), 1.0F);

  Tensor grad = Tensor::zeros({3, 2});
  Tensor dy = Tensor::full({2, 2, 2}, 1.0F);
  ops::embedding_backward_acc(grad, ids, dy);
  EXPECT_FLOAT_EQ(grad.at({1, 0}), 2.0F);  // id 1 appears twice
  EXPECT_FLOAT_EQ(grad.at({0, 0}), 1.0F);
  EXPECT_FLOAT_EQ(grad.at({2, 0}), 1.0F);

  Tensor bad_ids = Tensor::from_vector({1}, {7});
  EXPECT_THROW(ops::embedding(table, bad_ids), InvalidArgument);
}

TEST(OpsTest, Reductions) {
  Tensor x = Tensor::from_vector({4}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(ops::sum(x), 10.0F);
  EXPECT_FLOAT_EQ(ops::mean(x), 2.5F);
}

TEST(OpsTest, MeanOverDim1RoundTrip) {
  Rng rng(77);
  Tensor x = Tensor::randn({2, 3, 4}, rng);
  Tensor y = ops::mean_over_dim1(x);
  EXPECT_EQ(y.size(0), 2);
  EXPECT_EQ(y.size(1), 4);
  float manual = (x.at({0, 0, 1}) + x.at({0, 1, 1}) + x.at({0, 2, 1})) / 3.0F;
  EXPECT_NEAR(y.at({0, 1}), manual, 1e-5F);

  Tensor dy = Tensor::randn({2, 4}, rng);
  Tensor dx = ops::mean_over_dim1_backward(dy, 3);
  EXPECT_EQ(dx.numel(), x.numel());
  EXPECT_NEAR(dx.at({0, 2, 1}), dy.at({0, 1}) / 3.0F, 1e-6F);
}

TEST(OpsTest, Transpose2d) {
  Tensor x = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor y = ops::transpose_2d(x);
  EXPECT_EQ(y.size(0), 3);
  EXPECT_EQ(y.size(1), 2);
  EXPECT_FLOAT_EQ(y.at({2, 1}), 6.0F);
}

}  // namespace
}  // namespace pac
