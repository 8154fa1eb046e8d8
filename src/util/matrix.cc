#include "util/matrix.h"

#include <cmath>
#include <utility>

#include "util/logging.h"

namespace autopilot::util
{

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : numRows(rows), numCols(cols), data(rows * cols, fill)
{
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

double &
Matrix::at(std::size_t r, std::size_t c)
{
    panicIf(r >= numRows || c >= numCols, "Matrix::at: index out of range");
    return data[r * numCols + c];
}

double
Matrix::at(std::size_t r, std::size_t c) const
{
    panicIf(r >= numRows || c >= numCols, "Matrix::at: index out of range");
    return data[r * numCols + c];
}

Matrix
Matrix::multiply(const Matrix &other) const
{
    panicIf(numCols != other.numRows, "Matrix::multiply: shape mismatch");
    Matrix out(numRows, other.numCols, 0.0);
    for (std::size_t i = 0; i < numRows; ++i) {
        for (std::size_t k = 0; k < numCols; ++k) {
            const double lhs = (*this)(i, k);
            if (lhs == 0.0)
                continue;
            for (std::size_t j = 0; j < other.numCols; ++j)
                out(i, j) += lhs * other(k, j);
        }
    }
    return out;
}

Matrix
Matrix::transposed() const
{
    Matrix out(numCols, numRows, 0.0);
    for (std::size_t i = 0; i < numRows; ++i)
        for (std::size_t j = 0; j < numCols; ++j)
            out(j, i) = (*this)(i, j);
    return out;
}

Matrix
Matrix::add(const Matrix &other) const
{
    panicIf(numRows != other.numRows || numCols != other.numCols,
            "Matrix::add: shape mismatch");
    Matrix out(numRows, numCols, 0.0);
    for (std::size_t i = 0; i < data.size(); ++i)
        out.data[i] = data[i] + other.data[i];
    return out;
}

Matrix
Matrix::scaled(double factor) const
{
    Matrix out = *this;
    for (double &v : out.data)
        v *= factor;
    return out;
}

bool
Matrix::operator==(const Matrix &other) const
{
    return numRows == other.numRows && numCols == other.numCols &&
           data == other.data;
}

CholeskyFactor::CholeskyFactor(const Matrix &a, double jitter)
    : jitter(jitter)
{
    panicIf(a.rows() != a.cols(), "CholeskyFactor: matrix not square");
    appendRows(a);
}

void
CholeskyFactor::appendRows(const Matrix &rows)
{
    const std::size_t old_n = factor.rows();
    const std::size_t n = old_n + rows.rows();
    panicIf(rows.cols() != n, "CholeskyFactor::appendRows: shape mismatch");
    Matrix grown(n, n, 0.0);
    for (std::size_t i = 0; i < old_n; ++i)
        for (std::size_t j = 0; j <= i; ++j)
            grown(i, j) = factor(i, j);
    for (std::size_t i = old_n; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double sum = rows(i - old_n, j);
            if (i == j)
                sum += jitter;
            for (std::size_t k = 0; k < j; ++k)
                sum -= grown(i, k) * grown(j, k);
            if (i == j) {
                fatalIf(sum <= 0.0,
                        "CholeskyFactor: matrix not positive definite");
                grown(i, j) = std::sqrt(sum);
            } else {
                grown(i, j) = sum / grown(j, j);
            }
        }
    }
    factor = std::move(grown);
}

void
CholeskyFactor::solveLowerInPlace(std::vector<double> &b) const
{
    const std::size_t n = factor.rows();
    panicIf(b.size() != n, "CholeskyFactor::solveLowerInPlace: size mismatch");
    for (std::size_t i = 0; i < n; ++i) {
        double sum = b[i];
        for (std::size_t k = 0; k < i; ++k)
            sum -= factor(i, k) * b[k];
        b[i] = sum / factor(i, i);
    }
}

std::vector<double>
CholeskyFactor::solve(const std::vector<double> &b) const
{
    const std::size_t n = factor.rows();
    std::vector<double> y = b;
    solveLowerInPlace(y);
    // Back substitution against L^T.
    std::vector<double> x(n, 0.0);
    for (std::size_t ii = n; ii-- > 0;) {
        double sum = y[ii];
        for (std::size_t k = ii + 1; k < n; ++k)
            sum -= factor(k, ii) * x[k];
        x[ii] = sum / factor(ii, ii);
    }
    return x;
}

double
CholeskyFactor::logDeterminant() const
{
    double log_det = 0.0;
    for (std::size_t i = 0; i < factor.rows(); ++i)
        log_det += std::log(factor(i, i));
    return 2.0 * log_det;
}

} // namespace autopilot::util
