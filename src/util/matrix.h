/**
 * @file
 * Dense row-major matrix with the linear-algebra kernels needed by the
 * Gaussian-process surrogate: multiply, transpose, Cholesky factorization
 * and triangular solves.
 *
 * This is deliberately a small, self-contained implementation rather than a
 * dependency on a BLAS: the GP training sets in AutoPilot's Phase 2 are a
 * few hundred points at most. A Cholesky factor is built row by row, so a
 * growing training set extends its factor by the new rows in O(n^2) per
 * row instead of refactorizing in O(n^3).
 */

#ifndef AUTOPILOT_UTIL_MATRIX_H
#define AUTOPILOT_UTIL_MATRIX_H

#include <cstddef>
#include <vector>

namespace autopilot::util
{

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** rows x cols matrix filled with @p fill. */
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    /** n x n identity matrix. */
    static Matrix identity(std::size_t n);

    std::size_t rows() const { return numRows; }
    std::size_t cols() const { return numCols; }

    /** Element access. @pre indices in range (checked via panic). */
    double &at(std::size_t r, std::size_t c);
    double at(std::size_t r, std::size_t c) const;

    /** Unchecked element access for hot loops. */
    double &operator()(std::size_t r, std::size_t c)
    {
        return data[r * numCols + c];
    }
    double operator()(std::size_t r, std::size_t c) const
    {
        return data[r * numCols + c];
    }

    /** Row @p r as a contiguous array of cols() values (unchecked). */
    const double *row(std::size_t r) const { return &data[r * numCols]; }

    /** Matrix product this * other. @pre cols() == other.rows(). */
    Matrix multiply(const Matrix &other) const;

    /** Transposed copy. */
    Matrix transposed() const;

    /** Elementwise sum. @pre same shape. */
    Matrix add(const Matrix &other) const;

    /** Scaled copy. */
    Matrix scaled(double factor) const;

    /** True when shapes and all elements match exactly. */
    bool operator==(const Matrix &other) const;

  private:
    std::size_t numRows = 0;
    std::size_t numCols = 0;
    std::vector<double> data;
};

/**
 * Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
 *
 * Factorizes A = L L^T and then answers solves against the factor.
 * Construction fails via fatal() when A is not positive definite even after
 * the caller-supplied jitter is added to the diagonal.
 *
 * The factorization is row-oriented (Cholesky-Banachiewicz): row i of L
 * reads only A(i, 0..i) and the rows of L above it. So when A grows by
 * whole rows and columns, appendRows() computes just the new rows of L
 * with the same operations in the same order as a fresh factorization of
 * the grown matrix, and the two factors are bit-identical.
 */
class CholeskyFactor
{
  public:
    /**
     * Factorize @p a (must be square and symmetric).
     *
     * @param a      Matrix to factorize.
     * @param jitter Value added to the diagonal for numerical stability.
     */
    explicit CholeskyFactor(const Matrix &a, double jitter = 1e-10);

    /**
     * Extend the factor of the n x n matrix A to the (n+m) x (n+m)
     * matrix that adds m rows (and the mirrored columns) to A.
     *
     * @param rows m x (n+m) matrix; row r holds the grown matrix's row
     *             n + r. Only its entries up to the diagonal are read.
     */
    void appendRows(const Matrix &rows);

    /** The lower-triangular factor L. */
    const Matrix &lower() const { return factor; }

    /** Solve A x = b via forward/back substitution. */
    std::vector<double> solve(const std::vector<double> &b) const;

    /** Solve L y = b (forward substitution only), overwriting @p b. */
    void solveLowerInPlace(std::vector<double> &b) const;

    /** log(det(A)) = 2 * sum(log(L_ii)), useful for GP likelihoods. */
    double logDeterminant() const;

  private:
    Matrix factor;
    double jitter;
};

} // namespace autopilot::util

#endif // AUTOPILOT_UTIL_MATRIX_H
