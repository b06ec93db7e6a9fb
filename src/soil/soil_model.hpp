// Horizontally stratified soil model (paper eq. 2.3).
//
// The soil is a stack of C horizontal layers below the surface z = 0, each
// with a scalar apparent conductivity gamma_c [1/(Ohm m)] and a thickness
// (the last layer extends to z -> -infinity). The paper argues two-layer
// (sometimes three-layer) models suffice for safe designs; the image-series
// kernel covers two layers, and the numerical Hankel kernel covers any C.
#pragma once

#include <cstddef>
#include <vector>

namespace ebem::soil {

struct Layer {
  double conductivity = 0.0;  ///< gamma_c [1/(Ohm m)]
  double thickness = 0.0;     ///< [m]; ignored (infinite) for the last layer

  friend bool operator==(const Layer&, const Layer&) = default;
};

class LayeredSoil {
 public:
  /// Uniform (single-layer) soil.
  [[nodiscard]] static LayeredSoil uniform(double conductivity);

  /// Two-layer soil: upper layer of the given thickness over an infinite
  /// lower layer.
  [[nodiscard]] static LayeredSoil two_layer(double upper_conductivity,
                                             double lower_conductivity,
                                             double upper_thickness);

  /// General stack; the last layer's thickness is ignored (infinite).
  explicit LayeredSoil(std::vector<Layer> layers);

  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }
  [[nodiscard]] const Layer& layer(std::size_t c) const { return layers_[c]; }
  [[nodiscard]] double conductivity(std::size_t c) const { return layers_[c].conductivity; }
  [[nodiscard]] double resistivity(std::size_t c) const { return 1.0 / layers_[c].conductivity; }

  /// Index of the layer containing depth z (z <= 0; the surface belongs to
  /// layer 0). Points below the last interface belong to the last layer.
  [[nodiscard]] std::size_t layer_of(double z) const;

  /// Depth (positive) of the interface between layers c and c+1.
  [[nodiscard]] double interface_depth(std::size_t c) const;

  /// Reflection coefficient kappa = (gamma_1 - gamma_2)/(gamma_1 + gamma_2)
  /// of a two-layer model (paper §3). Requires layer_count() == 2.
  [[nodiscard]] double reflection_coefficient() const;

  [[nodiscard]] bool is_uniform() const { return layers_.size() == 1; }

  /// Exact value equality of the stack (what a congruence cache is bound to).
  friend bool operator==(const LayeredSoil&, const LayeredSoil&) = default;

 private:
  std::vector<Layer> layers_;
  std::vector<double> interface_depths_;  // cumulative, size C-1
};

}  // namespace ebem::soil
