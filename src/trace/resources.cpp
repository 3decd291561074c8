#include "trace/resources.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

namespace corp::trace {

std::string_view resource_name(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kCpu: return "CPU";
    case ResourceKind::kMemory: return "MEM";
    case ResourceKind::kStorage: return "STORAGE";
  }
  return "?";
}

ResourceVector& ResourceVector::operator+=(const ResourceVector& o) {
  for (std::size_t i = 0; i < kNumResources; ++i) v_[i] += o.v_[i];
  return *this;
}

ResourceVector& ResourceVector::operator-=(const ResourceVector& o) {
  for (std::size_t i = 0; i < kNumResources; ++i) v_[i] -= o.v_[i];
  return *this;
}

ResourceVector& ResourceVector::operator*=(double s) {
  for (std::size_t i = 0; i < kNumResources; ++i) v_[i] *= s;
  return *this;
}

bool ResourceVector::any_negative(double eps) const {
  for (std::size_t i = 0; i < kNumResources; ++i) {
    if (v_[i] < -eps) return true;
  }
  return false;
}

ResourceVector ResourceVector::clamped_non_negative() const {
  ResourceVector out = *this;
  for (std::size_t i = 0; i < kNumResources; ++i) {
    out.v_[i] = std::max(0.0, out.v_[i]);
  }
  return out;
}

ResourceVector ResourceVector::min(const ResourceVector& a,
                                   const ResourceVector& b) {
  ResourceVector out;
  for (std::size_t i = 0; i < kNumResources; ++i) {
    out.v_[i] = std::min(a.v_[i], b.v_[i]);
  }
  return out;
}

ResourceVector ResourceVector::max(const ResourceVector& a,
                                   const ResourceVector& b) {
  ResourceVector out;
  for (std::size_t i = 0; i < kNumResources; ++i) {
    out.v_[i] = std::max(a.v_[i], b.v_[i]);
  }
  return out;
}

ResourceKind ResourceVector::dominant() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < kNumResources; ++i) {
    if (v_[i] > v_[best]) best = i;
  }
  return static_cast<ResourceKind>(best);
}

double ResourceVector::total() const {
  double s = 0.0;
  for (std::size_t i = 0; i < kNumResources; ++i) s += v_[i];
  return s;
}

double ResourceVector::weighted_total(
    const std::array<double, kNumResources>& w) const {
  double s = 0.0;
  for (std::size_t i = 0; i < kNumResources; ++i) s += w[i] * v_[i];
  return s;
}

std::ostream& operator<<(std::ostream& os, const ResourceVector& r) {
  os << '<' << r.cpu() << ", " << r.memory() << ", " << r.storage() << '>';
  return os;
}

bool ResourceWeights::valid(double eps) const {
  double sum = 0.0;
  for (double x : w) {
    if (x < 0.0) return false;
    sum += x;
  }
  return std::abs(sum - 1.0) <= eps;
}

}  // namespace corp::trace
