#include "linalg/simd_kernels.hpp"

#include <cstdlib>

#if defined(__x86_64__) || defined(_M_X64)
#define REX_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__ARM_NEON) || defined(__aarch64__)
#define REX_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace rex::linalg::simd {

namespace {

// ===== Scalar reference kernels =====
//
// These are byte-for-byte the loops vector_ops.hpp shipped before the SIMD
// layer existed; the escape hatch and every small-input fast path route
// here, so REX_SCALAR_KERNELS reproduces the pre-SIMD build exactly.

void axpy_scalar(float alpha, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale_scalar(float* x, float alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void weighted_sum_scalar(float* dst, float w_dst, const float* src,
                         float w_src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = w_dst * dst[i] + w_src * src[i];
  }
}

void mf_sgd_rows_scalar(float* x, float* y, std::size_t n, float error,
                        float lr, float lambda) {
  for (std::size_t l = 0; l < n; ++l) {
    const float x_old = x[l];
    x[l] += lr * (error * y[l] - lambda * x[l]);
    y[l] += lr * (error * x_old - lambda * y[l]);
  }
}

#if REX_SIMD_X86

// ===== AVX2 kernels =====
//
// Compiled with target("avx2") only — deliberately without "fma" — so the
// compiler cannot contract the explicit mul-then-add sequences below into
// fused operations; each lane rounds exactly like the scalar loop. The
// remainder (< 8 lanes) falls through to the scalar kernel: same ops, same
// order. kAvx512 runs these same kernels; only the cipher has 512-bit
// passes.

__attribute__((target("avx2"))) void axpy_avx2(float alpha, const float* x,
                                               float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
  }
  axpy_scalar(alpha, x + i, y + i, n - i);
}

__attribute__((target("avx2"))) void scale_avx2(float* x, float alpha,
                                                std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), va));
  }
  scale_scalar(x + i, alpha, n - i);
}

__attribute__((target("avx2"))) void weighted_sum_avx2(float* dst,
                                                       float w_dst,
                                                       const float* src,
                                                       float w_src,
                                                       std::size_t n) {
  const __m256 vwd = _mm256_set1_ps(w_dst);
  const __m256 vws = _mm256_set1_ps(w_src);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vd = _mm256_mul_ps(vwd, _mm256_loadu_ps(dst + i));
    const __m256 vs = _mm256_mul_ps(vws, _mm256_loadu_ps(src + i));
    _mm256_storeu_ps(dst + i, _mm256_add_ps(vd, vs));
  }
  weighted_sum_scalar(dst + i, w_dst, src + i, w_src, n - i);
}

__attribute__((target("avx2"))) void mf_sgd_rows_avx2(float* x, float* y,
                                                      std::size_t n,
                                                      float error, float lr,
                                                      float lambda) {
  const __m256 ve = _mm256_set1_ps(error);
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 vla = _mm256_set1_ps(lambda);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    // x += lr * (error * y - lambda * x); mul / sub / mul / add, like scalar.
    const __m256 gx = _mm256_sub_ps(_mm256_mul_ps(ve, vy),
                                    _mm256_mul_ps(vla, vx));
    const __m256 nx = _mm256_add_ps(vx, _mm256_mul_ps(vlr, gx));
    // y += lr * (error * x_old - lambda * y) — x_old is the pre-update vx.
    const __m256 gy = _mm256_sub_ps(_mm256_mul_ps(ve, vx),
                                    _mm256_mul_ps(vla, vy));
    const __m256 ny = _mm256_add_ps(vy, _mm256_mul_ps(vlr, gy));
    _mm256_storeu_ps(x + i, nx);
    _mm256_storeu_ps(y + i, ny);
  }
  mf_sgd_rows_scalar(x + i, y + i, n - i, error, lr, lambda);
}

#endif  // REX_SIMD_X86

#if REX_SIMD_NEON

// ===== NEON kernels =====
// Same mul-then-add discipline as the AVX2 paths (vmlaq is avoided on
// targets where it lowers to a fused op).

void axpy_neon(float alpha, const float* x, float* y, std::size_t n) {
  const float32x4_t va = vdupq_n_f32(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t vx = vld1q_f32(x + i);
    const float32x4_t vy = vld1q_f32(y + i);
    vst1q_f32(y + i, vaddq_f32(vy, vmulq_f32(va, vx)));
  }
  axpy_scalar(alpha, x + i, y + i, n - i);
}

void scale_neon(float* x, float alpha, std::size_t n) {
  const float32x4_t va = vdupq_n_f32(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(x + i, vmulq_f32(vld1q_f32(x + i), va));
  }
  scale_scalar(x + i, alpha, n - i);
}

void weighted_sum_neon(float* dst, float w_dst, const float* src, float w_src,
                       std::size_t n) {
  const float32x4_t vwd = vdupq_n_f32(w_dst);
  const float32x4_t vws = vdupq_n_f32(w_src);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t vd = vmulq_f32(vwd, vld1q_f32(dst + i));
    const float32x4_t vs = vmulq_f32(vws, vld1q_f32(src + i));
    vst1q_f32(dst + i, vaddq_f32(vd, vs));
  }
  weighted_sum_scalar(dst + i, w_dst, src + i, w_src, n - i);
}

void mf_sgd_rows_neon(float* x, float* y, std::size_t n, float error,
                      float lr, float lambda) {
  const float32x4_t ve = vdupq_n_f32(error);
  const float32x4_t vlr = vdupq_n_f32(lr);
  const float32x4_t vla = vdupq_n_f32(lambda);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t vx = vld1q_f32(x + i);
    const float32x4_t vy = vld1q_f32(y + i);
    const float32x4_t gx = vsubq_f32(vmulq_f32(ve, vy), vmulq_f32(vla, vx));
    const float32x4_t nx = vaddq_f32(vx, vmulq_f32(vlr, gx));
    const float32x4_t gy = vsubq_f32(vmulq_f32(ve, vx), vmulq_f32(vla, vy));
    const float32x4_t ny = vaddq_f32(vy, vmulq_f32(vlr, gy));
    vst1q_f32(x + i, nx);
    vst1q_f32(y + i, ny);
  }
  mf_sgd_rows_scalar(x + i, y + i, n - i, error, lr, lambda);
}

#endif  // REX_SIMD_NEON

bool env_flag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' && value[0] != '0';
}

Backend detect_backend() {
  if (env_flag("REX_SCALAR_KERNELS")) return Backend::kScalar;
#if REX_SIMD_X86
  if (__builtin_cpu_supports("avx2")) {
    return __builtin_cpu_supports("avx512f") ? Backend::kAvx512
                                             : Backend::kAvx2;
  }
#endif
#if REX_SIMD_NEON
  return Backend::kNeon;
#endif
  return Backend::kScalar;
}

// Resolved once before any worker thread touches a kernel (the first call
// happens during single-threaded setup); the test hook rewrites it between
// single-threaded test sections only.
Backend g_backend = detect_backend();

}  // namespace

Backend active_backend() { return g_backend; }

void set_backend(Backend backend) { g_backend = backend; }

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
    case Backend::kAvx512: return "avx512";
    case Backend::kNeon: return "neon";
  }
  return "?";
}

void axpy(float alpha, const float* x, float* y, std::size_t n) {
  switch (g_backend) {
#if REX_SIMD_X86
    case Backend::kAvx2:
    case Backend::kAvx512: axpy_avx2(alpha, x, y, n); return;
#endif
#if REX_SIMD_NEON
    case Backend::kNeon: axpy_neon(alpha, x, y, n); return;
#endif
    default: axpy_scalar(alpha, x, y, n); return;
  }
}

void scale(float* x, float alpha, std::size_t n) {
  switch (g_backend) {
#if REX_SIMD_X86
    case Backend::kAvx2:
    case Backend::kAvx512: scale_avx2(x, alpha, n); return;
#endif
#if REX_SIMD_NEON
    case Backend::kNeon: scale_neon(x, alpha, n); return;
#endif
    default: scale_scalar(x, alpha, n); return;
  }
}

void weighted_sum(float* dst, float w_dst, const float* src, float w_src,
                  std::size_t n) {
  switch (g_backend) {
#if REX_SIMD_X86
    case Backend::kAvx2:
    case Backend::kAvx512: weighted_sum_avx2(dst, w_dst, src, w_src, n); return;
#endif
#if REX_SIMD_NEON
    case Backend::kNeon: weighted_sum_neon(dst, w_dst, src, w_src, n); return;
#endif
    default: weighted_sum_scalar(dst, w_dst, src, w_src, n); return;
  }
}

void mf_sgd_rows(float* x, float* y, std::size_t n, float error, float lr,
                 float lambda) {
  switch (g_backend) {
#if REX_SIMD_X86
    case Backend::kAvx2:
    case Backend::kAvx512: mf_sgd_rows_avx2(x, y, n, error, lr, lambda); return;
#endif
#if REX_SIMD_NEON
    case Backend::kNeon: mf_sgd_rows_neon(x, y, n, error, lr, lambda); return;
#endif
    default: mf_sgd_rows_scalar(x, y, n, error, lr, lambda); return;
  }
}

}  // namespace rex::linalg::simd
