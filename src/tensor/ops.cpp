#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/thread_pool.hpp"

namespace pac::ops {
namespace {

// Rows of x when the last dimension is treated as the feature axis.
std::int64_t rows_of(const Tensor& x) {
  PAC_CHECK(x.dim() >= 1, "expected tensor with >= 1 dim");
  return x.numel() / x.size(x.dim() - 1);
}

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

// Minimum elements per chunk when threading row-wise / elementwise ops; below
// this the dispatch overhead dominates and the op runs inline.
constexpr std::int64_t kRowOpGrainElems = 1 << 14;

std::int64_t row_grain(std::int64_t cols) {
  return std::max<std::int64_t>(
      1, kRowOpGrainElems / std::max<std::int64_t>(1, cols));
}

struct MatView {
  const Tensor* t;
  std::int64_t rows;
  std::int64_t cols;
};

MatView as_2d(const Tensor& t) {
  PAC_CHECK(t.dim() >= 2, "matmul operand must have >= 2 dims, got "
                              << shape_to_string(t.shape()));
  const std::int64_t cols = t.size(t.dim() - 1);
  return MatView{&t, t.numel() / cols, cols};
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  const MatView av = as_2d(a);
  const MatView bv = as_2d(b);
  PAC_CHECK(av.cols == bv.rows, "matmul: " << shape_to_string(a.shape())
                                           << " @ "
                                           << shape_to_string(b.shape()));
  Tensor c({av.rows, bv.cols});
  gemm_raw(a.data(), b.data(), c.data(), av.rows, bv.cols, av.cols, false,
           false, 1.0F, 0.0F);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b, const Tensor* bias) {
  const MatView av = as_2d(a);
  const MatView bv = as_2d(b);
  PAC_CHECK(av.cols == bv.cols, "matmul_nt: " << shape_to_string(a.shape())
                                              << " @ "
                                              << shape_to_string(b.shape())
                                              << "^T");
  PAC_CHECK(bias == nullptr || bias->numel() == bv.rows,
            "matmul_nt: bias numel " << bias->numel() << " vs " << bv.rows);
  Tensor c({av.rows, bv.rows});
  gemm_raw(a.data(), b.data(), c.data(), av.rows, bv.rows, av.cols, false,
           true, 1.0F, 0.0F, bias != nullptr ? bias->data() : nullptr);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  const MatView av = as_2d(a);
  const MatView bv = as_2d(b);
  PAC_CHECK(av.rows == bv.rows, "matmul_tn: " << shape_to_string(a.shape())
                                              << "^T @ "
                                              << shape_to_string(b.shape()));
  Tensor c({av.cols, bv.cols});
  gemm_raw(a.data(), b.data(), c.data(), av.cols, bv.cols, av.rows, true,
           false, 1.0F, 0.0F);
  return c;
}

void matmul_acc(Tensor& c, const Tensor& a, const Tensor& b, bool trans_a,
                bool trans_b, float alpha) {
  const MatView av = as_2d(a);
  const MatView bv = as_2d(b);
  const std::int64_t m = trans_a ? av.cols : av.rows;
  const std::int64_t k = trans_a ? av.rows : av.cols;
  const std::int64_t kb = trans_b ? bv.cols : bv.rows;
  const std::int64_t n = trans_b ? bv.rows : bv.cols;
  PAC_CHECK(k == kb, "matmul_acc inner dim mismatch: " << k << " vs " << kb);
  const MatView cv = as_2d(c);
  PAC_CHECK(cv.rows == m && cv.cols == n,
            "matmul_acc output shape mismatch: got "
                << shape_to_string(c.shape()) << ", want " << m << "x" << n);
  gemm_raw(a.data(), b.data(), c.data(), m, n, k, trans_a, trans_b, alpha,
           1.0F);
}

namespace {

template <typename F>
Tensor binary_op(const Tensor& a, const Tensor& b, F f, const char* name) {
  PAC_CHECK(a.numel() == b.numel(), name << ": numel mismatch " << a.numel()
                                         << " vs " << b.numel());
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  ThreadPool::global().parallel_for(
      a.numel(),
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) po[i] = f(pa[i], pb[i]);
      },
      kRowOpGrainElems);
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x + y; }, "add");
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x - y; }, "sub");
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x * y; }, "mul");
}

Tensor scale(const Tensor& a, float alpha) {
  Tensor out = a.clone();
  out.scale_(alpha);
  return out;
}

Tensor add_bias(const Tensor& x, const Tensor& bias) {
  const std::int64_t cols = x.size(x.dim() - 1);
  PAC_CHECK(bias.numel() == cols, "add_bias: bias numel " << bias.numel()
                                                          << " vs cols "
                                                          << cols);
  Tensor out(x.shape());
  const std::int64_t rows = rows_of(x);
  const float* px = x.data();
  const float* pb = bias.data();
  float* po = out.data();
  ThreadPool::global().parallel_for(
      rows,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t r = begin; r < end; ++r) {
          const float* xr = px + r * cols;
          float* yr = po + r * cols;
          for (std::int64_t j = 0; j < cols; ++j) yr[j] = xr[j] + pb[j];
        }
      },
      row_grain(cols));
  return out;
}

void bias_grad_acc(Tensor& grad_bias, const Tensor& dy) {
  const std::int64_t cols = grad_bias.numel();
  PAC_CHECK(dy.numel() % cols == 0, "bias_grad_acc: dy numel " << dy.numel()
                                                               << " vs bias "
                                                               << cols);
  const std::int64_t rows = dy.numel() / cols;
  const float* pd = dy.data();
  float* pg = grad_bias.data();
  // Threads split the *column* axis so each output element has one writer
  // and a fixed row-ascending accumulation order.
  ThreadPool::global().parallel_for(
      cols,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* drow = pd + r * cols;
          for (std::int64_t j = begin; j < end; ++j) pg[j] += drow[j];
        }
      },
      row_grain(rows));
}

Tensor relu(const Tensor& x) {
  Tensor out(x.shape());
  const float* px = x.data();
  float* po = out.data();
  ThreadPool::global().parallel_for(
      x.numel(),
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          po[i] = px[i] > 0.0F ? px[i] : 0.0F;
        }
      },
      kRowOpGrainElems);
  return out;
}

Tensor relu_backward(const Tensor& dy, const Tensor& x) {
  PAC_CHECK(dy.numel() == x.numel(), "relu_backward numel mismatch");
  Tensor dx(x.shape());
  const float* pd = dy.data();
  const float* px = x.data();
  float* po = dx.data();
  ThreadPool::global().parallel_for(
      x.numel(),
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          po[i] = px[i] > 0.0F ? pd[i] : 0.0F;
        }
      },
      kRowOpGrainElems);
  return dx;
}

namespace {

// tanh-approximation GELU and its derivative.
constexpr float kGeluC = 0.7978845608028654F;  // sqrt(2/pi)

float gelu_scalar(float x) {
  const float u = kGeluC * (x + 0.044715F * x * x * x);
  return 0.5F * x * (1.0F + std::tanh(u));
}

float gelu_grad_scalar(float x) {
  const float x3 = x * x * x;
  const float u = kGeluC * (x + 0.044715F * x3);
  const float t = std::tanh(u);
  const float du = kGeluC * (1.0F + 3.0F * 0.044715F * x * x);
  return 0.5F * (1.0F + t) + 0.5F * x * (1.0F - t * t) * du;
}

// tanh makes GELU much heavier per element than the other elementwise ops.
constexpr std::int64_t kGeluGrainElems = 1 << 12;

}  // namespace

Tensor gelu(const Tensor& x) {
  Tensor out(x.shape());
  const float* px = x.data();
  float* po = out.data();
  ThreadPool::global().parallel_for(
      x.numel(),
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) po[i] = gelu_scalar(px[i]);
      },
      kGeluGrainElems);
  return out;
}

Tensor gelu_backward(const Tensor& dy, const Tensor& x) {
  PAC_CHECK(dy.numel() == x.numel(), "gelu_backward numel mismatch");
  Tensor dx(x.shape());
  const float* pd = dy.data();
  const float* px = x.data();
  float* po = dx.data();
  ThreadPool::global().parallel_for(
      x.numel(),
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          po[i] = pd[i] * gelu_grad_scalar(px[i]);
        }
      },
      kGeluGrainElems);
  return dx;
}

Tensor softmax_lastdim(const Tensor& x) {
  const std::int64_t cols = x.size(x.dim() - 1);
  const std::int64_t rows = rows_of(x);
  Tensor out(x.shape());
  const float* px = x.data();
  float* po = out.data();
  ThreadPool::global().parallel_for(
      rows,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t r = begin; r < end; ++r) {
          const float* xr = px + r * cols;
          float* yr = po + r * cols;
          float mx = xr[0];
          for (std::int64_t j = 1; j < cols; ++j) mx = std::max(mx, xr[j]);
          float z = 0.0F;
          for (std::int64_t j = 0; j < cols; ++j) {
            yr[j] = std::exp(xr[j] - mx);
            z += yr[j];
          }
          const float inv = 1.0F / z;
          for (std::int64_t j = 0; j < cols; ++j) yr[j] *= inv;
        }
      },
      row_grain(cols));
  return out;
}

Tensor softmax_backward(const Tensor& dy, const Tensor& y) {
  PAC_CHECK(dy.numel() == y.numel(), "softmax_backward numel mismatch");
  const std::int64_t cols = y.size(y.dim() - 1);
  const std::int64_t rows = rows_of(y);
  Tensor dx(y.shape());
  const float* pd = dy.data();
  const float* py = y.data();
  float* po = dx.data();
  ThreadPool::global().parallel_for(
      rows,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t r = begin; r < end; ++r) {
          const float* dr = pd + r * cols;
          const float* yr = py + r * cols;
          float* or_ = po + r * cols;
          float dot = 0.0F;
          for (std::int64_t j = 0; j < cols; ++j) dot += dr[j] * yr[j];
          for (std::int64_t j = 0; j < cols; ++j) {
            or_[j] = yr[j] * (dr[j] - dot);
          }
        }
      },
      row_grain(cols));
  return dx;
}

void attention_masked_softmax(Tensor& scores, std::int64_t b, std::int64_t nh,
                              std::int64_t t, std::int64_t s, bool causal,
                              const Tensor* key_mask) {
  PAC_CHECK(scores.numel() == b * nh * t * s,
            "attention_masked_softmax: scores numel "
                << scores.numel() << " vs " << b << "*" << nh << "*" << t
                << "*" << s);
  if (key_mask != nullptr) {
    PAC_CHECK(key_mask->numel() == b * s,
              "key mask must be [B, S] = [" << b << ", " << s << "]");
  }
  float* ps = scores.data();
  const float* pm = key_mask != nullptr ? key_mask->data() : nullptr;
  const std::int64_t rows = b * nh * t;
  const float uniform = 1.0F / static_cast<float>(s);
  ThreadPool::global().parallel_for(
      rows,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t row = begin; row < end; ++row) {
          const std::int64_t bi = row / (nh * t);
          const std::int64_t r = row % t;
          float* x = ps + row * s;
          const float* mrow = pm != nullptr ? pm + bi * s : nullptr;
          const std::int64_t limit =
              causal ? std::min<std::int64_t>(s, r + 1) : s;
          float mx = 0.0F;
          bool any = false;
          for (std::int64_t j = 0; j < limit; ++j) {
            if (mrow != nullptr && mrow[j] == 0.0F) continue;
            mx = any ? std::max(mx, x[j]) : x[j];
            any = true;
          }
          if (!any) {
            // Every position masked out: the unfused path softmaxed a row of
            // equal -1e30 scores, i.e. uniform attention.  Preserve that.
            std::fill_n(x, s, uniform);
            continue;
          }
          float z = 0.0F;
          for (std::int64_t j = 0; j < limit; ++j) {
            if (mrow != nullptr && mrow[j] == 0.0F) {
              x[j] = 0.0F;
            } else {
              x[j] = std::exp(x[j] - mx);
              z += x[j];
            }
          }
          for (std::int64_t j = limit; j < s; ++j) x[j] = 0.0F;
          const float inv = 1.0F / z;
          for (std::int64_t j = 0; j < limit; ++j) x[j] *= inv;
        }
      },
      row_grain(s));
}

Tensor layernorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps, LayerNormContext* ctx) {
  const std::int64_t cols = x.size(x.dim() - 1);
  PAC_CHECK(gamma.numel() == cols && beta.numel() == cols,
            "layernorm affine params must match feature dim " << cols);
  const std::int64_t rows = rows_of(x);
  Tensor out(x.shape());
  Tensor mean({rows});
  Tensor rstd({rows});
  const float* px = x.data();
  const float* pg = gamma.data();
  const float* pb = beta.data();
  float* po = out.data();
  float* pm = mean.data();
  float* pr = rstd.data();
  ThreadPool::global().parallel_for(
      rows,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t r = begin; r < end; ++r) {
          const float* xr = px + r * cols;
          float m = 0.0F;
          for (std::int64_t j = 0; j < cols; ++j) m += xr[j];
          m /= static_cast<float>(cols);
          float var = 0.0F;
          for (std::int64_t j = 0; j < cols; ++j) {
            const float d = xr[j] - m;
            var += d * d;
          }
          var /= static_cast<float>(cols);
          const float rs = 1.0F / std::sqrt(var + eps);
          pm[r] = m;
          pr[r] = rs;
          float* yr = po + r * cols;
          for (std::int64_t j = 0; j < cols; ++j) {
            yr[j] = (xr[j] - m) * rs * pg[j] + pb[j];
          }
        }
      },
      row_grain(cols));
  if (ctx != nullptr) {
    ctx->mean = std::move(mean);
    ctx->rstd = std::move(rstd);
    ctx->input = x;
  }
  return out;
}

Tensor layernorm_backward(const Tensor& dy, const Tensor& gamma,
                          const LayerNormContext& ctx, Tensor& dgamma,
                          Tensor& dbeta) {
  const Tensor& x = ctx.input;
  const std::int64_t cols = x.size(x.dim() - 1);
  const std::int64_t rows = rows_of(x);
  PAC_CHECK(dy.numel() == x.numel(), "layernorm_backward numel mismatch");
  PAC_CHECK(dgamma.numel() == cols && dbeta.numel() == cols,
            "layernorm_backward grad buffers must match feature dim");
  Tensor dx(x.shape());
  const float* pd = dy.data();
  const float* px = x.data();
  const float* pg = gamma.data();
  const float* pm = ctx.mean.data();
  const float* pr = ctx.rstd.data();
  float* pdx = dx.data();
  float* pdg = dgamma.data();
  float* pdb = dbeta.data();
  const float inv_cols = 1.0F / static_cast<float>(cols);

  // dx rows are independent, but dgamma/dbeta reduce over rows.  Each chunk
  // accumulates into its own buffers; the chunk partials are then summed in
  // fixed chunk order, so the result is deterministic for a fixed pool
  // width.
  auto row_body = [&](std::int64_t begin, std::int64_t end, float* ldg,
                      float* ldb) {
    for (std::int64_t r = begin; r < end; ++r) {
      const float* dr = pd + r * cols;
      const float* xr = px + r * cols;
      float* oxr = pdx + r * cols;
      const float m = pm[r];
      const float rs = pr[r];
      // xhat = (x - m) * rs; dxhat = dy * gamma
      float sum_dxhat = 0.0F;
      float sum_dxhat_xhat = 0.0F;
      for (std::int64_t j = 0; j < cols; ++j) {
        const float xhat = (xr[j] - m) * rs;
        const float dxhat = dr[j] * pg[j];
        sum_dxhat += dxhat;
        sum_dxhat_xhat += dxhat * xhat;
        ldg[j] += dr[j] * xhat;
        ldb[j] += dr[j];
      }
      for (std::int64_t j = 0; j < cols; ++j) {
        const float xhat = (xr[j] - m) * rs;
        const float dxhat = dr[j] * pg[j];
        oxr[j] = rs * (dxhat - inv_cols * sum_dxhat -
                       inv_cols * xhat * sum_dxhat_xhat);
      }
    }
  };

  auto& pool = ThreadPool::global();
  const std::int64_t grain = row_grain(cols);
  const auto width = static_cast<std::int64_t>(pool.width());
  if (width == 1 || rows < 2 * grain || pool.on_worker_thread()) {
    row_body(0, rows, pdg, pdb);
    return dx;
  }
  const std::int64_t nchunks =
      std::min<std::int64_t>(width, ceil_div(rows, grain));
  const std::int64_t per_chunk = ceil_div(rows, nchunks);
  std::vector<float> partials(
      static_cast<std::size_t>(nchunks * 2 * cols), 0.0F);
  pool.parallel_for(
      nchunks,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t chunk = begin; chunk < end; ++chunk) {
          const std::int64_t r0 = chunk * per_chunk;
          const std::int64_t r1 =
              std::min<std::int64_t>(rows, r0 + per_chunk);
          float* ldg = partials.data() + chunk * 2 * cols;
          row_body(r0, r1, ldg, ldg + cols);
        }
      },
      /*grain=*/1);
  for (std::int64_t chunk = 0; chunk < nchunks; ++chunk) {
    const float* ldg = partials.data() + chunk * 2 * cols;
    for (std::int64_t j = 0; j < cols; ++j) {
      pdg[j] += ldg[j];
      pdb[j] += ldg[cols + j];
    }
  }
  return dx;
}

Tensor embedding(const Tensor& table, const Tensor& ids) {
  PAC_CHECK(table.dim() == 2, "embedding table must be 2-D");
  const std::int64_t vocab = table.size(0);
  const std::int64_t h = table.size(1);
  Shape out_shape = ids.shape();
  out_shape.push_back(h);
  Tensor out(out_shape);
  const float* pt = table.data();
  const float* pi = ids.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < ids.numel(); ++i) {
    const std::int64_t id = static_cast<std::int64_t>(pi[i]);
    PAC_CHECK(id >= 0 && id < vocab, "token id " << id << " out of vocab "
                                                 << vocab);
    std::copy_n(pt + id * h, h, po + i * h);
  }
  return out;
}

void embedding_backward_acc(Tensor& grad_table, const Tensor& ids,
                            const Tensor& dy) {
  PAC_CHECK(grad_table.dim() == 2, "embedding grad table must be 2-D");
  const std::int64_t vocab = grad_table.size(0);
  const std::int64_t h = grad_table.size(1);
  PAC_CHECK(dy.numel() == ids.numel() * h, "embedding_backward size mismatch");
  float* pg = grad_table.data();
  const float* pi = ids.data();
  const float* pd = dy.data();
  for (std::int64_t i = 0; i < ids.numel(); ++i) {
    const std::int64_t id = static_cast<std::int64_t>(pi[i]);
    PAC_CHECK(id >= 0 && id < vocab, "token id " << id << " out of vocab "
                                                 << vocab);
    float* row = pg + id * h;
    const float* drow = pd + i * h;
    for (std::int64_t j = 0; j < h; ++j) row[j] += drow[j];
  }
}

float sum(const Tensor& x) {
  const float* p = x.data();
  double acc = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) acc += p[i];
  return static_cast<float>(acc);
}

float mean(const Tensor& x) {
  PAC_CHECK(x.numel() > 0, "mean of empty tensor");
  return sum(x) / static_cast<float>(x.numel());
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  PAC_CHECK(a.numel() == b.numel(), "max_abs_diff numel mismatch");
  const float* pa = a.data();
  const float* pb = b.data();
  float mx = 0.0F;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    mx = std::max(mx, std::abs(pa[i] - pb[i]));
  }
  return mx;
}

Tensor transpose_2d(const Tensor& x) {
  PAC_CHECK(x.dim() == 2, "transpose_2d needs a 2-D tensor");
  const std::int64_t r = x.size(0);
  const std::int64_t c = x.size(1);
  Tensor out({c, r});
  const float* px = x.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < r; ++i) {
    for (std::int64_t j = 0; j < c; ++j) po[j * r + i] = px[i * c + j];
  }
  return out;
}

Tensor mean_over_dim1(const Tensor& x) {
  PAC_CHECK(x.dim() == 3, "mean_over_dim1 needs [B, T, H]");
  const std::int64_t b = x.size(0);
  const std::int64_t t = x.size(1);
  const std::int64_t h = x.size(2);
  Tensor out = Tensor::zeros({b, h});
  const float* px = x.data();
  float* po = out.data();
  const float inv = 1.0F / static_cast<float>(t);
  for (std::int64_t i = 0; i < b; ++i) {
    for (std::int64_t s = 0; s < t; ++s) {
      const float* row = px + (i * t + s) * h;
      float* orow = po + i * h;
      for (std::int64_t j = 0; j < h; ++j) orow[j] += row[j] * inv;
    }
  }
  return out;
}

Tensor masked_mean_over_dim1(const Tensor& x, const Tensor& mask) {
  PAC_CHECK(x.dim() == 3, "masked_mean_over_dim1 needs [B, T, H]");
  const std::int64_t b = x.size(0);
  const std::int64_t t = x.size(1);
  const std::int64_t h = x.size(2);
  PAC_CHECK(mask.numel() == b * t, "mask must be [B, T]");
  Tensor out = Tensor::zeros({b, h});
  const float* px = x.data();
  const float* pm = mask.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < b; ++i) {
    float count = 0.0F;
    for (std::int64_t s = 0; s < t; ++s) count += pm[i * t + s];
    if (count == 0.0F) continue;
    const float inv = 1.0F / count;
    for (std::int64_t s = 0; s < t; ++s) {
      if (pm[i * t + s] == 0.0F) continue;
      const float* row = px + (i * t + s) * h;
      float* orow = po + i * h;
      for (std::int64_t j = 0; j < h; ++j) orow[j] += row[j] * inv;
    }
  }
  return out;
}

Tensor masked_mean_over_dim1_backward(const Tensor& dy, const Tensor& mask) {
  PAC_CHECK(dy.dim() == 2, "masked_mean_over_dim1_backward needs [B, H]");
  const std::int64_t b = dy.size(0);
  const std::int64_t h = dy.size(1);
  PAC_CHECK(mask.dim() == 2 && mask.size(0) == b, "mask must be [B, T]");
  const std::int64_t t = mask.size(1);
  Tensor dx = Tensor::zeros({b, t, h});
  const float* pd = dy.data();
  const float* pm = mask.data();
  float* po = dx.data();
  for (std::int64_t i = 0; i < b; ++i) {
    float count = 0.0F;
    for (std::int64_t s = 0; s < t; ++s) count += pm[i * t + s];
    if (count == 0.0F) continue;
    const float inv = 1.0F / count;
    for (std::int64_t s = 0; s < t; ++s) {
      if (pm[i * t + s] == 0.0F) continue;
      float* row = po + (i * t + s) * h;
      const float* drow = pd + i * h;
      for (std::int64_t j = 0; j < h; ++j) row[j] = drow[j] * inv;
    }
  }
  return dx;
}

Tensor mean_over_dim1_backward(const Tensor& dy, std::int64_t t) {
  PAC_CHECK(dy.dim() == 2, "mean_over_dim1_backward needs [B, H]");
  const std::int64_t b = dy.size(0);
  const std::int64_t h = dy.size(1);
  Tensor dx({b, t, h});
  const float* pd = dy.data();
  float* po = dx.data();
  const float inv = 1.0F / static_cast<float>(t);
  for (std::int64_t i = 0; i < b; ++i) {
    for (std::int64_t s = 0; s < t; ++s) {
      float* row = po + (i * t + s) * h;
      const float* drow = pd + i * h;
      for (std::int64_t j = 0; j < h; ++j) row[j] = drow[j] * inv;
    }
  }
  return dx;
}

}  // namespace pac::ops
