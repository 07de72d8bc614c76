#include "eval/hungarian.h"

#include <cmath>
#include <limits>

#include "util/check.h"

namespace dhmm::eval {

std::vector<int> SolveAssignment(const linalg::Matrix& cost) {
  const size_t n = cost.rows();
  const size_t m = cost.cols();
  DHMM_CHECK_MSG(n <= m, "assignment needs rows <= cols");
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Potentials u (rows) and v (cols); p[col] = row matched to col; 1-based
  // internally with column 0 as the virtual source.
  std::vector<double> u(n + 1, 0.0), v(m + 1, 0.0);
  std::vector<size_t> p(m + 1, 0), way(m + 1, 0);
  for (size_t i = 1; i <= n; ++i) {
    p[0] = i;
    size_t j0 = 0;
    std::vector<double> minv(m + 1, kInf);
    std::vector<char> used(m + 1, 0);
    do {
      used[j0] = 1;
      size_t i0 = p[j0], j1 = 0;
      double delta = kInf;
      for (size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        double cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    // Augment along the path.
    do {
      size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  std::vector<int> assign(n, -1);
  for (size_t j = 1; j <= m; ++j) {
    if (p[j] != 0) assign[p[j] - 1] = static_cast<int>(j - 1);
  }
  for (int a : assign) DHMM_CHECK(a >= 0);
  return assign;
}

std::vector<int> SolveMaxAssignment(const linalg::Matrix& value) {
  linalg::Matrix neg = value;
  neg *= -1.0;
  return SolveAssignment(neg);
}

}  // namespace dhmm::eval
