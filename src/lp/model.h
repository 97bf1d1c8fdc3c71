// Linear-program model container.
//
// Minimization over variables with finite bounds, subject to linear
// constraints with <=, >= or = sense. The FPVA path/cut ILP models of the
// paper (constraints (1)-(4), (6), (9)) are naturally bounded -- binaries
// and big-M-bounded flows -- so the solver requires finite bounds on every
// variable and in exchange can never be unbounded.
#ifndef FPVA_LP_MODEL_H
#define FPVA_LP_MODEL_H

#include <string>
#include <vector>

namespace fpva::lp {

/// Constraint sense.
enum class Sense { kLessEqual, kGreaterEqual, kEqual };

/// One linear term: coefficient * variable.
struct Term {
  int variable = 0;
  double coefficient = 0.0;
};

/// A linear constraint sum(terms) sense rhs.
struct Constraint {
  std::vector<Term> terms;
  Sense sense = Sense::kLessEqual;
  double rhs = 0.0;
};

/// Variable metadata.
struct Variable {
  double lower = 0.0;
  double upper = 0.0;
  double objective = 0.0;
  std::string name;
};

/// Mutable LP model; feed to lp::solve() (simplex.h).
class Model {
 public:
  /// Adds a variable with finite bounds [lower, upper] and the given
  /// objective coefficient (minimization). Returns its index.
  int add_variable(double lower, double upper, double objective,
                   std::string name = {});

  /// Overwrites the bounds of `variable`.
  void set_bounds(int variable, double lower, double upper);

  /// Adds a constraint; terms may repeat variables (they are summed).
  /// Returns the constraint index.
  int add_constraint(std::vector<Term> terms, Sense sense, double rhs);

  int variable_count() const { return static_cast<int>(variables_.size()); }
  int constraint_count() const {
    return static_cast<int>(constraints_.size());
  }

  const Variable& variable(int index) const;
  const Constraint& constraint(int index) const;

  /// Objective value of a full assignment (no feasibility check).
  double objective_value(const std::vector<double>& values) const;

  /// Maximum constraint violation of a full assignment; 0 means feasible.
  double max_violation(const std::vector<double>& values) const;

 private:
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
};

}  // namespace fpva::lp

#endif  // FPVA_LP_MODEL_H
