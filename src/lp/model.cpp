#include "lp/model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/strings.h"

namespace fpva::lp {

using common::cat;
using common::check;

namespace {
constexpr double kBoundLimit = 1e15;
}

int Model::add_variable(double lower, double upper, double objective,
                        std::string name) {
  check(std::isfinite(lower) && std::isfinite(upper) &&
            std::abs(lower) < kBoundLimit && std::abs(upper) < kBoundLimit,
        "lp::Model: variable bounds must be finite");
  if (!(lower <= upper)) {
    common::fail(cat("lp::Model: empty domain [", lower, ", ", upper,
                     "] for variable ", name));
  }
  if (variables_.capacity() == 0) variables_.reserve(32);
  variables_.push_back(Variable{lower, upper, objective, std::move(name)});
  return static_cast<int>(variables_.size()) - 1;
}

void Model::set_bounds(int variable, double lower, double upper) {
  check(variable >= 0 && variable < variable_count(),
        "lp::Model::set_bounds: variable out of range");
  check(std::isfinite(lower) && std::isfinite(upper) && lower <= upper,
        "lp::Model::set_bounds: bad bounds");
  variables_[static_cast<std::size_t>(variable)].lower = lower;
  variables_[static_cast<std::size_t>(variable)].upper = upper;
}

int Model::add_constraint(std::vector<Term> terms, Sense sense, double rhs) {
  for (const Term& term : terms) {
    check(term.variable >= 0 && term.variable < variable_count(),
          "lp::Model::add_constraint: term references unknown variable");
    check(std::isfinite(term.coefficient),
          "lp::Model::add_constraint: non-finite coefficient");
  }
  check(std::isfinite(rhs), "lp::Model::add_constraint: non-finite rhs");
  if (constraints_.capacity() == 0) constraints_.reserve(16);
  constraints_.push_back(Constraint{std::move(terms), sense, rhs});
  return static_cast<int>(constraints_.size()) - 1;
}

const Variable& Model::variable(int index) const {
  check(index >= 0 && index < variable_count(),
        "lp::Model::variable: out of range");
  return variables_[static_cast<std::size_t>(index)];
}

const Constraint& Model::constraint(int index) const {
  check(index >= 0 && index < constraint_count(),
        "lp::Model::constraint: out of range");
  return constraints_[static_cast<std::size_t>(index)];
}

double Model::objective_value(const std::vector<double>& values) const {
  check(values.size() == variables_.size(),
        "lp::Model::objective_value: wrong arity");
  double total = 0.0;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    total += variables_[i].objective * values[i];
  }
  return total;
}

double Model::max_violation(const std::vector<double>& values) const {
  check(values.size() == variables_.size(),
        "lp::Model::max_violation: wrong arity");
  double worst = 0.0;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    worst = std::max(worst, variables_[i].lower - values[i]);
    worst = std::max(worst, values[i] - variables_[i].upper);
  }
  for (const Constraint& row : constraints_) {
    double lhs = 0.0;
    for (const Term& term : row.terms) {
      lhs += term.coefficient * values[static_cast<std::size_t>(term.variable)];
    }
    switch (row.sense) {
      case Sense::kLessEqual:
        worst = std::max(worst, lhs - row.rhs);
        break;
      case Sense::kGreaterEqual:
        worst = std::max(worst, row.rhs - lhs);
        break;
      case Sense::kEqual:
        worst = std::max(worst, std::abs(lhs - row.rhs));
        break;
    }
  }
  return worst;
}

}  // namespace fpva::lp
