//! Row-major dense `f32` matrices.
//!
//! The compute kernels (`matmul` and its transposed variants, the
//! elementwise ops) run on the workspace's deterministic fork-join backend
//! ([`crate::parallel`]): output rows are partitioned into contiguous
//! chunks, each chunk is computed with the exact serial loop, and every
//! per-element reduction keeps its fixed accumulation order — so results
//! are bit-identical at any thread count, and inputs below the per-kernel
//! cutoffs never leave the calling thread.
//!
//! # The GEMM micro-kernel
//!
//! `matmul` and `matmul_transpose_a` compute each chunk in register tiles
//! of `TILE_ROWS × TILE_COLS` (4 × 8) outputs. A tile's accumulators stay
//! in registers for the whole reduction; `matmul_transpose_a` splits its
//! reduction rows into panels of `T_A_PANEL` and takes the tile back to
//! `out` between panels. Each accumulator starts at `+0.0` and adds
//! `a · b` in the plain loop's order (k-ascending, or i-ascending for the
//! transpose), so the tile gives the plain loop's bits with one
//! difference: the plain loop skips a zero `a`, the tile does not. That is
//! exact for a finite `b`: under round-to-nearest an accumulator that
//! starts at `+0` never becomes `−0`, so adding `±0 · b = ±0` changes
//! nothing. An inf or NaN `b` would make `0 · b` a NaN, so each call first
//! checks that `rhs` is all finite (O(k·n)); if it is not, the whole call
//! runs the zero-skipping loop, as do the edge rows and columns that do
//! not fill a tile.
//!
//! The tile body is compiled twice: portably, and with AVX enabled, which
//! each call picks when the host has AVX. FMA stays off, because a fused
//! multiply-add rounds once where `a * b + c` rounds twice. NaN outputs
//! may differ in sign and payload between builds: Rust fixes neither, for
//! the old loop as much as for the tile.

use crate::parallel;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Range, Sub};

/// Output rows of the GEMM micro-kernel's register tile.
const TILE_ROWS: usize = 4;
/// Output columns of the GEMM micro-kernel's register tile.
const TILE_COLS: usize = 8;
/// Reduction rows per `matmul_transpose_a` panel. Between panels a tile
/// goes back to `out`, so the panel's rows of both inputs stay
/// cache-resident across all the tiles that read them (128 measured faster
/// than 64 or 256 at the 1500×128×64 weight-gradient shape).
const T_A_PANEL: usize = 128;

/// Rows of output each matmul worker claims at minimum, sized so a chunk
/// amortises spawn/join over [`parallel::MATMUL_GRAIN_FLOPS`] multiply-adds.
fn matmul_grain_rows(flops_per_row: usize) -> usize {
    (parallel::MATMUL_GRAIN_FLOPS / flops_per_row.max(1)).max(1)
}

/// A dense row-major `f32` matrix.
///
/// # Example
///
/// ```
/// use fastgl_tensor::Matrix;
///
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Wraps a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer of {} elements cannot form a {rows}x{cols} matrix",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The flat row-major buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix product `self · rhs` on the register-tiled GEMM kernel (see
    /// the module docs). Parallelised over contiguous output-row chunks;
    /// every output element accumulates in k-ascending order from `+0.0`,
    /// so the result is bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let _span = fastgl_telemetry::span("tensor.matmul")
            .with_u64("m", self.rows as u64)
            .with_u64("k", self.cols as u64)
            .with_u64("n", rhs.cols as u64);
        fastgl_telemetry::counter_add(
            "tensor.matmul_flops",
            2 * (self.rows * self.cols * rhs.cols) as u64,
        );
        gemm(Gemm::Nn, self, rhs, host_has_avx())
    }

    /// `selfᵀ · rhs`, without materialising the transpose (backward pass
    /// weight gradient: `dW = Xᵀ · dY`), on the register-tiled GEMM kernel.
    ///
    /// Parallelised over contiguous chunks of *output* rows (= columns `k`
    /// of `self`): each worker owns a disjoint `k` range and scans all rows
    /// `i` of the inputs in ascending order, so every output element keeps
    /// the serial i-ascending accumulation order with no write conflicts.
    /// The tradeoff is that each worker re-reads the inputs, which is cheap
    /// relative to the multiply-adds it owns.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != rhs.rows`.
    pub fn matmul_transpose_a(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_transpose_a dimension mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let _span = fastgl_telemetry::span("tensor.matmul_t_a")
            .with_u64("m", self.cols as u64)
            .with_u64("k", self.rows as u64)
            .with_u64("n", rhs.cols as u64);
        fastgl_telemetry::counter_add(
            "tensor.matmul_flops",
            2 * (self.rows * self.cols * rhs.cols) as u64,
        );
        gemm(Gemm::Tn, self, rhs, host_has_avx())
    }

    /// `self · rhsᵀ`, without materialising the transpose (backward pass
    /// input gradient: `dX = dY · Wᵀ`).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_transpose_b(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transpose_b dimension mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let _span = fastgl_telemetry::span("tensor.matmul_t_b")
            .with_u64("m", self.rows as u64)
            .with_u64("k", self.cols as u64)
            .with_u64("n", rhs.rows as u64);
        fastgl_telemetry::counter_add(
            "tensor.matmul_flops",
            2 * (self.rows * self.cols * rhs.rows) as u64,
        );
        let n = rhs.rows;
        let mut out = Matrix::zeros(self.rows, n);
        if n == 0 {
            return out;
        }
        let grain = matmul_grain_rows(self.cols.max(1) * n);
        parallel::par_row_chunks_mut(&mut out.data, n, grain, |first_row, chunk| {
            for (di, out_row) in chunk.chunks_mut(n).enumerate() {
                let a_row = self.row(first_row + di);
                for (j, o) in out_row.iter_mut().enumerate() {
                    let b_row = rhs.row(j);
                    let mut acc = 0.0;
                    for (&a, &b) in a_row.iter().zip(b_row) {
                        acc += a * b;
                    }
                    *o = acc;
                }
            }
        });
        out
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Applies `f` elementwise, returning a new matrix. Runs in parallel
    /// chunks above the elementwise cutoff (each element is independent, so
    /// any partition is bit-identical to the serial pass).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        parallel::par_row_chunks_mut(
            &mut out.data,
            1,
            parallel::ELEMWISE_GRAIN,
            |first, chunk| {
                let src = &self.data[first..first + chunk.len()];
                for (o, &x) in chunk.iter_mut().zip(src) {
                    *o = f(x);
                }
            },
        );
        out
    }

    /// Multiplies every element in place.
    pub fn scale(&mut self, s: f32) {
        parallel::par_row_chunks_mut(&mut self.data, 1, parallel::ELEMWISE_GRAIN, |_, chunk| {
            for x in chunk {
                *x *= s;
            }
        });
    }

    /// Adds `rhs` scaled by `alpha` in place (`self += alpha * rhs`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "axpy shape mismatch"
        );
        parallel::par_row_chunks_mut(
            &mut self.data,
            1,
            parallel::ELEMWISE_GRAIN,
            |first, chunk| {
                let src = &rhs.data[first..first + chunk.len()];
                for (a, &b) in chunk.iter_mut().zip(src) {
                    *a += alpha * b;
                }
            },
        );
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "hadamard shape mismatch"
        );
        let mut out = Matrix::zeros(self.rows, self.cols);
        parallel::par_row_chunks_mut(
            &mut out.data,
            1,
            parallel::ELEMWISE_GRAIN,
            |first, chunk| {
                let a = &self.data[first..first + chunk.len()];
                let b = &rhs.data[first..first + chunk.len()];
                for ((o, &x), &y) in chunk.iter_mut().zip(a).zip(b) {
                    *o = x * y;
                }
            },
        );
        out
    }

    /// Selects rows by index into a new matrix (feature gather).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        Self::gather_flat(&self.data, self.cols, self.rows, indices)
    }

    /// Gathers rows out of a flat row-major feature buffer of `dim`-wide
    /// rows (the mini-batch feature load: `out[i] = src[indices[i]]`).
    /// Row copies are independent, so the gather parallelises over
    /// contiguous output-row chunks with no ordering concerns.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() < num_rows * dim` or any index is `>= num_rows`.
    pub fn gather_flat(src: &[f32], dim: usize, num_rows: usize, indices: &[usize]) -> Matrix {
        assert!(
            src.len() >= num_rows * dim,
            "flat buffer of {} elements is smaller than {num_rows} rows of {dim}",
            src.len()
        );
        let _span = fastgl_telemetry::span("tensor.gather")
            .with_u64("rows", indices.len() as u64)
            .with_u64("dim", dim as u64);
        fastgl_telemetry::counter_add("tensor.gather_rows", indices.len() as u64);
        fastgl_telemetry::counter_add("tensor.gather_bytes", (indices.len() * dim * 4) as u64);
        let mut out = Matrix::zeros(indices.len(), dim);
        if dim == 0 {
            for &idx in indices {
                assert!(idx < num_rows, "row index {idx} out of bounds");
            }
            return out;
        }
        parallel::par_row_chunks_mut(
            &mut out.data,
            dim,
            parallel::GATHER_GRAIN_ROWS,
            |first_row, chunk| {
                for (i, row) in chunk.chunks_mut(dim).enumerate() {
                    let idx = indices[first_row + i];
                    assert!(idx < num_rows, "row index {idx} out of bounds");
                    row.copy_from_slice(&src[idx * dim..(idx + 1) * dim]);
                }
            },
        );
        out
    }
}

/// Which product [`gemm`] computes.
#[derive(Clone, Copy)]
enum Gemm {
    /// `lhs · rhs`: output row `r` is row `r` of `lhs` times `rhs`.
    Nn,
    /// `lhsᵀ · rhs`: output row `r` is column `r` of `lhs` times `rhs`.
    Tn,
}

/// Whether this host can run the AVX build of the GEMM body.
fn host_has_avx() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Computes `op(lhs, rhs)` into a new matrix, running the AVX build of the
/// GEMM body when `avx` is set (only where the host has AVX).
fn gemm(op: Gemm, lhs: &Matrix, rhs: &Matrix, avx: bool) -> Matrix {
    let (rows, depth) = match op {
        Gemm::Nn => (lhs.rows, lhs.cols),
        Gemm::Tn => (lhs.cols, lhs.rows),
    };
    let n = rhs.cols;
    let mut out = Matrix::zeros(rows, n);
    if n == 0 {
        return out;
    }
    // The tiles add `±0·b` where the skip loop skips a zero `a`; that is a
    // no-op only for finite `b` (module docs), so check `rhs` once here.
    let tiled = rhs.data.iter().fold(true, |ok, x| ok & x.is_finite());
    let grain = matmul_grain_rows(depth * n);
    parallel::par_row_chunks_mut(&mut out.data, n, grain, |first, chunk| {
        #[cfg(target_arch = "x86_64")]
        if avx {
            assert!(
                std::arch::is_x86_feature_detected!("avx"),
                "the AVX GEMM body needs a host with AVX"
            );
            // SAFETY: `gemm_chunk_avx` is safe code compiled with AVX
            // enabled; its one requirement is a CPU that supports AVX,
            // which the assert above has just checked.
            unsafe { gemm_chunk_avx(op, lhs, rhs, tiled, first, chunk) };
            return;
        }
        gemm_chunk(op, lhs, rhs, tiled, first, chunk);
    });
    out
}

/// [`gemm_chunk`] compiled with AVX. No FMA: a fused multiply-add rounds
/// once where the portable build rounds twice, so it would change results.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn gemm_chunk_avx(
    op: Gemm,
    lhs: &Matrix,
    rhs: &Matrix,
    tiled: bool,
    first: usize,
    out: &mut [f32],
) {
    gemm_chunk(op, lhs, rhs, tiled, first, out);
}

/// Computes output rows `first..` of `op(lhs, rhs)` into `out`: full
/// `TILE_ROWS × TILE_COLS` tiles on the register-tiled kernel when `tiled`,
/// everything else on the zero-skipping loop.
#[inline(always)]
fn gemm_chunk(op: Gemm, lhs: &Matrix, rhs: &Matrix, tiled: bool, first: usize, out: &mut [f32]) {
    let n = rhs.cols;
    let rows = out.len() / n;
    let (tile_rows, tile_cols) = if tiled {
        (rows - rows % TILE_ROWS, n - n % TILE_COLS)
    } else {
        (0, 0)
    };
    match op {
        Gemm::Nn => {
            for r0 in (0..tile_rows).step_by(TILE_ROWS) {
                let tile_out = &mut out[r0 * n..(r0 + TILE_ROWS) * n];
                for j0 in (0..tile_cols).step_by(TILE_COLS) {
                    nn_tile(lhs, rhs, first + r0, j0, tile_out);
                }
            }
            nn_skip(lhs, rhs, first, 0..tile_rows, tile_cols..n, out);
            nn_skip(lhs, rhs, first, tile_rows..rows, 0..n, out);
        }
        Gemm::Tn => {
            for p0 in (0..lhs.rows).step_by(T_A_PANEL) {
                let panel = p0..(p0 + T_A_PANEL).min(lhs.rows);
                for r0 in (0..tile_rows).step_by(TILE_ROWS) {
                    let tile_out = &mut out[r0 * n..(r0 + TILE_ROWS) * n];
                    for j0 in (0..tile_cols).step_by(TILE_COLS) {
                        tn_tile(lhs, rhs, panel.clone(), first + r0, j0, tile_out);
                    }
                }
            }
            tn_skip(lhs, rhs, first, 0..tile_rows, tile_cols..n, out);
            tn_skip(lhs, rhs, first, tile_rows..rows, 0..n, out);
        }
    }
}

/// One `lhs · rhs` tile: output rows `row..row + TILE_ROWS` (the first
/// `TILE_ROWS` rows of `out`), columns `j0..j0 + TILE_COLS`, accumulated in
/// registers over the whole k range.
#[inline(always)]
fn nn_tile(lhs: &Matrix, rhs: &Matrix, row: usize, j0: usize, out: &mut [f32]) {
    let n = rhs.cols;
    assert!(j0 + TILE_COLS <= n, "tile columns out of range");
    let [a0, a1, a2, a3]: [&[f32]; TILE_ROWS] = std::array::from_fn(|r| lhs.row(row + r));
    let mut acc = [[0.0f32; TILE_COLS]; TILE_ROWS];
    let a_cols = a0.iter().zip(a1).zip(a2).zip(a3);
    for (b_row, (((&x0, &x1), &x2), &x3)) in rhs.data.chunks_exact(n).zip(a_cols) {
        let b = &b_row[j0..j0 + TILE_COLS];
        for (acc_row, a) in acc.iter_mut().zip([x0, x1, x2, x3]) {
            for (o, &b) in acc_row.iter_mut().zip(b) {
                *o += a * b;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * n + j0..][..TILE_COLS].copy_from_slice(acc_row);
    }
}

/// One `lhsᵀ · rhs` tile: output rows `k0..k0 + TILE_ROWS` (the first
/// `TILE_ROWS` rows of `out`), columns `j0..j0 + TILE_COLS`, accumulated in
/// registers over the reduction rows of `panel`, starting from `out`.
#[inline(always)]
fn tn_tile(lhs: &Matrix, rhs: &Matrix, panel: Range<usize>, k0: usize, j0: usize, out: &mut [f32]) {
    let (m, n) = (lhs.cols, rhs.cols);
    assert!(
        k0 + TILE_ROWS <= m && j0 + TILE_COLS <= n,
        "tile out of range"
    );
    let mut acc = [[0.0f32; TILE_COLS]; TILE_ROWS];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        acc_row.copy_from_slice(&out[r * n + j0..][..TILE_COLS]);
    }
    let a_rows = lhs.data[panel.start * m..panel.end * m].chunks_exact(m);
    let b_rows = rhs.data[panel.start * n..panel.end * n].chunks_exact(n);
    for (a_row, b_row) in a_rows.zip(b_rows) {
        let b = &b_row[j0..j0 + TILE_COLS];
        for (acc_row, &a) in acc.iter_mut().zip(&a_row[k0..k0 + TILE_ROWS]) {
            for (o, &b) in acc_row.iter_mut().zip(b) {
                *o += a * b;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * n + j0..][..TILE_COLS].copy_from_slice(acc_row);
    }
}

/// The zero-skipping `lhs · rhs` loop over output rows `rows` (relative to
/// `first`) and columns `cols`: k-ascending, skipping every zero `a`.
fn nn_skip(
    lhs: &Matrix,
    rhs: &Matrix,
    first: usize,
    rows: Range<usize>,
    cols: Range<usize>,
    out: &mut [f32],
) {
    if rows.is_empty() || cols.is_empty() {
        return;
    }
    let n = rhs.cols;
    for r in rows {
        let out_row = &mut out[r * n..(r + 1) * n][cols.clone()];
        for (k, &a) in lhs.row(first + r).iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in out_row.iter_mut().zip(&rhs.row(k)[cols.clone()]) {
                *o += a * b;
            }
        }
    }
}

/// The zero-skipping `lhsᵀ · rhs` loop over output rows `rows` (relative to
/// `first`) and columns `cols`: i-ascending, skipping every zero `a`.
fn tn_skip(
    lhs: &Matrix,
    rhs: &Matrix,
    first: usize,
    rows: Range<usize>,
    cols: Range<usize>,
    out: &mut [f32],
) {
    if rows.is_empty() || cols.is_empty() {
        return;
    }
    let n = rhs.cols;
    for i in 0..lhs.rows {
        let a_part = &lhs.row(i)[first + rows.start..first + rows.end];
        let b = &rhs.row(i)[cols.clone()];
        for (r, &a) in rows.clone().zip(a_part) {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in out[r * n..(r + 1) * n][cols.clone()].iter_mut().zip(b) {
                *o += a * b;
            }
        }
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.axpy(1.0, rhs);
        out
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.axpy(-1.0, rhs);
        out
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.axpy(1.0, rhs);
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f32) -> Matrix {
        let mut out = self.clone();
        out.scale(s);
        out
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>9.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 6 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &Matrix, b: &Matrix, eps: f32) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() < eps)
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 3.0]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn transpose_variants_agree_with_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 4, (0..12).map(|x| x as f32).collect());
        let t1 = a.matmul_transpose_a(&b);
        let t2 = a.transpose().matmul(&b);
        assert!(approx(&t1, &t2, 1e-6));

        let c = Matrix::from_vec(5, 2, (0..10).map(|x| x as f32 * 0.3).collect());
        let d = Matrix::from_vec(4, 2, (0..8).map(|x| x as f32 - 3.0).collect());
        let t3 = c.matmul_transpose_b(&d);
        let t4 = c.matmul(&d.transpose());
        assert!(approx(&t3, &t4, 1e-6));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn axpy_add_sub() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![10.0, 20.0, 30.0]);
        assert_eq!((&a + &b).as_slice(), &[11.0, 22.0, 33.0]);
        assert_eq!((&b - &a).as_slice(), &[9.0, 18.0, 27.0]);
        let mut c = a.clone();
        c.axpy(0.5, &b);
        assert_eq!(c.as_slice(), &[6.0, 12.0, 18.0]);
        c += &a;
        assert_eq!(c.as_slice(), &[7.0, 14.0, 21.0]);
    }

    #[test]
    fn scale_and_mul() {
        let a = Matrix::from_vec(1, 2, vec![2.0, -4.0]);
        assert_eq!((&a * 0.5).as_slice(), &[1.0, -2.0]);
    }

    #[test]
    fn hadamard_elementwise() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn gather_rows_selects() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.as_slice(), &[5.0, 6.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_rows_bounds_checked() {
        let a = Matrix::zeros(2, 2);
        let _ = a.gather_rows(&[5]);
    }

    #[test]
    fn norm_is_frobenius() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn map_applies_elementwise() {
        let a = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        let r = a.map(|x| x.max(0.0));
        assert_eq!(r.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn display_does_not_panic() {
        let a = Matrix::zeros(10, 10);
        let s = a.to_string();
        assert!(s.contains("Matrix 10x10"));
    }

    #[test]
    #[should_panic(expected = "cannot form")]
    fn from_vec_validates_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn gather_flat_matches_gather_rows() {
        let a = Matrix::from_vec(4, 3, (0..12).map(|x| x as f32).collect());
        let idx = [3, 1, 1, 0];
        let g1 = a.gather_rows(&idx);
        let g2 = Matrix::gather_flat(a.as_slice(), 3, 4, &idx);
        assert_eq!(g1, g2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_flat_bounds_checked() {
        let src = vec![0.0f32; 6];
        let _ = Matrix::gather_flat(&src, 3, 2, &[2]);
    }

    /// Pseudo-random but deterministic fill that exercises the zero-skip.
    fn fill(rows: usize, cols: usize, salt: u64) -> Matrix {
        let data = (0..rows * cols)
            .map(|i| {
                let mut x = i as u64 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^= x >> 31;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                if x.is_multiple_of(7) {
                    0.0
                } else {
                    ((x >> 40) as f32 / 8_388_608.0) - 1.0
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn kernels_bit_identical_across_thread_counts() {
        use crate::parallel::test_util::with_threads;
        // Sizes above every grain so the parallel path actually engages;
        // no dimension is a multiple of the GEMM tile, so every worker's
        // chunk ends in edge rows and columns.
        for (m, k, n) in [(97usize, 193usize, 131usize), (301, 67, 23), (250, 130, 37)] {
            let a = fill(m, k, 1);
            let b = fill(k, n, 2);
            let c = fill(m, n, 3);
            let idx: Vec<usize> = (0..500).map(|i| (i * 37) % m).collect();
            let run = || {
                (
                    a.matmul(&b),
                    a.matmul_transpose_a(&c),
                    c.matmul_transpose_b(&b),
                    a.map(|x| x.max(0.0)),
                    a.hadamard(&a),
                    a.gather_rows(&idx),
                )
            };
            let baseline = with_threads(1, run);
            for threads in [2usize, 3, 8] {
                let got = with_threads(threads, run);
                let at = format!("{m}x{k}x{n} t={threads}");
                assert_eq!(got.0.as_slice(), baseline.0.as_slice(), "matmul {at}");
                assert_eq!(got.1.as_slice(), baseline.1.as_slice(), "t_a {at}");
                assert_eq!(got.2.as_slice(), baseline.2.as_slice(), "t_b {at}");
                assert_eq!(got.3.as_slice(), baseline.3.as_slice(), "map {at}");
                assert_eq!(got.4.as_slice(), baseline.4.as_slice(), "hadamard {at}");
                assert_eq!(got.5.as_slice(), baseline.5.as_slice(), "gather {at}");
            }
        }
    }

    /// `matmul` before the register tile: the ikj loop, k-ascending from
    /// `+0.0`, skipping every zero `a`.
    fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for (k, &x) in a.row(i).iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for (o, &y) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                    *o += x * y;
                }
            }
        }
        out
    }

    /// `matmul_transpose_a` before the register tile: i-ascending from
    /// `+0.0`, skipping every zero `a`.
    fn reference_matmul_transpose_a(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for i in 0..a.rows() {
            for (k, &x) in a.row(i).iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for (o, &y) in out.row_mut(k).iter_mut().zip(b.row(i)) {
                    *o += x * y;
                }
            }
        }
        out
    }

    /// Deterministic fill where about every third entry is a special
    /// value: signed zeros, `MIN_POSITIVE`, subnormals, ±1e30 and, unless
    /// `finite`, ±inf and NaN.
    fn special_fill(rows: usize, cols: usize, salt: u64, finite: bool) -> Matrix {
        const FINITE: [f32; 8] = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-40,
            -3e-42,
            1e30,
            -1e30,
        ];
        const NON_FINITE: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let data = fill(rows, cols, salt)
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let h = (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                match h % 48 {
                    0..=15 => FINITE[(h / 48) as usize % FINITE.len()],
                    16 if !finite => NON_FINITE[(h / 48) as usize % NON_FINITE.len()],
                    _ => x,
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// `to_bits` of every element, with each NaN canonicalised: Rust fixes
    /// neither the sign nor the payload of a NaN that arithmetic produces.
    fn canonical_bits(m: &Matrix) -> Vec<u32> {
        m.as_slice()
            .iter()
            .map(|x| {
                if x.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    x.to_bits()
                }
            })
            .collect()
    }

    /// Checks both GEMMs on `a` (m×k), `b` (k×n) and `c` (m×n) against the
    /// pre-tile loops at each thread count, in every build of the GEMM body
    /// this host can run. Returns the references' bits.
    fn assert_gemms_match_references(
        a: &Matrix,
        b: &Matrix,
        c: &Matrix,
        threads: &[usize],
        at: &str,
    ) -> (Vec<u32>, Vec<u32>) {
        use crate::parallel::test_util::with_threads;
        let want_nn = canonical_bits(&reference_matmul(a, b));
        let want_tn = canonical_bits(&reference_matmul_transpose_a(a, c));
        let builds: &[bool] = if host_has_avx() {
            &[false, true]
        } else {
            &[false]
        };
        for &t in threads {
            with_threads(t, || {
                for &avx in builds {
                    let got_nn = canonical_bits(&gemm(Gemm::Nn, a, b, avx));
                    assert_eq!(got_nn, want_nn, "matmul avx={avx} {at} t={t}");
                    let got_tn = canonical_bits(&gemm(Gemm::Tn, a, c, avx));
                    assert_eq!(got_tn, want_tn, "t_a avx={avx} {at} t={t}");
                }
            });
        }
        (want_nn, want_tn)
    }

    #[test]
    fn tiled_gemms_match_the_skip_loops_bit_for_bit() {
        // Every tile edge: all m, k, n in 1..=19. These are below every
        // parallel grain, so one thread count covers them.
        for m in 1..=19 {
            for k in 1..=19 {
                for n in 1..=19 {
                    let salt = (m * 400 + k * 20 + n) as u64;
                    for (lhs_finite, rhs_finite) in [(true, true), (false, true), (false, false)] {
                        let a = special_fill(m, k, salt, lhs_finite);
                        let b = special_fill(k, n, salt + 1, rhs_finite);
                        let c = special_fill(m, n, salt + 2, rhs_finite);
                        let at = format!("{m}x{k}x{n} finite lhs={lhs_finite} rhs={rhs_finite}");
                        assert_gemms_match_references(&a, &b, &c, &[1], &at);
                    }
                }
            }
        }
        // The traced epoch's layer-0 shape, split across workers. The
        // public methods pick the build the host runs.
        for rhs_finite in [true, false] {
            let a = special_fill(1500, 128, 7, true);
            let b = special_fill(128, 64, 8, rhs_finite);
            let c = special_fill(1500, 64, 9, rhs_finite);
            let at = format!("1500x128x64 rhs finite={rhs_finite}");
            let (want_nn, want_tn) = assert_gemms_match_references(&a, &b, &c, &[1, 2, 8], &at);
            assert_eq!(canonical_bits(&a.matmul(&b)), want_nn, "public matmul {at}");
            assert_eq!(
                canonical_bits(&a.matmul_transpose_a(&c)),
                want_tn,
                "public t_a {at}"
            );
        }
    }

    #[test]
    fn inplace_kernels_bit_identical_across_thread_counts() {
        use crate::parallel::test_util::with_threads;
        let base = fill(211, 97, 4);
        let delta = fill(211, 97, 5);
        let baseline = with_threads(1, || {
            let mut m = base.clone();
            m.scale(0.37);
            m.axpy(-1.25, &delta);
            m
        });
        for threads in [2usize, 8] {
            let got = with_threads(threads, || {
                let mut m = base.clone();
                m.scale(0.37);
                m.axpy(-1.25, &delta);
                m
            });
            assert_eq!(got.as_slice(), baseline.as_slice(), "t={threads}");
        }
    }
}
