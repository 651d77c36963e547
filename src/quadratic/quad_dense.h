// Dense (fully-connected) quadratic layers — one class per family of the
// paper's Table I, all mapping [N, in] -> [N, out].
//
// A layer hosts `units` independent neurons of its family.  For the
// proposed neuron each unit emits rank+1 values (its quadratic output y
// followed by the intermediate features fᵏ = (Qᵏ)ᵀx, Sec. III-B), so the
// layer output width is units·(rank+1); all other families emit one value
// per unit.
//
// Output channel layout of ProposedQuadraticDense (unit u, rank k):
//   column u·(k+1)      : y_u = w_uᵀx + b_u + (fᵏ_u)ᵀ Λᵏ_u fᵏ_u
//   column u·(k+1)+1+i  : (fᵏ_u)_i,  i = 0…k−1
#pragma once

#include "linalg/packed_weights.h"
#include "nn/init.h"
#include "nn/module.h"
#include "quadratic/neuron_spec.h"

namespace qdnn::quadratic {

// ---------------------------------------------------------------------------
// Proposed neuron (this paper): {xᵀQᵏΛᵏ(Qᵏ)ᵀx + wᵀx + b, (Qᵏ)ᵀx}.
// ---------------------------------------------------------------------------
class ProposedQuadraticDense : public nn::Module {
 public:
  // emit_features = false disables the vectorized output (sum-only
  // ablation): the layer emits one y per unit and fᵏ stays internal.
  ProposedQuadraticDense(index_t in_features, index_t units, index_t rank,
                         Rng& rng, float lambda_lr_scale = 1e-3f,
                         std::string name = "proposed_fc",
                         bool emit_features = true);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  // v2: the projection gemm(s) and the {y, fᵏ} interleave run on
  // borrowed memory.
  Shape output_shape(const Shape& input_shape) const override;
  bool supports_forward_into() const override { return true; }
  void forward_into(const ConstTensorView& input, const TensorView& output,
                    Workspace& ws) override;

  // Freeze stacks [W; Q] into one PackedWeights, so a frozen forward_into
  // is one gemm producing [wᵀx | (Qᵏ)ᵀx] per row — no per-call trans_b
  // pack, and bit-identical to the unfrozen two-gemm path.
  void freeze() override;
  void unfreeze() override;

  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override { return name_; }

  index_t in_features() const { return in_; }
  index_t units() const { return units_; }
  index_t rank() const { return rank_; }
  bool emit_features() const { return emit_features_; }
  index_t out_features() const {
    return units_ * (emit_features_ ? rank_ + 1 : 1);
  }

  nn::Parameter& w() { return w_; }
  nn::Parameter& q() { return q_; }
  nn::Parameter& lambda() { return lambda_; }
  nn::Parameter& bias() { return b_; }

 private:
  index_t in_, units_, rank_;
  bool emit_features_;
  std::string name_;
  nn::Parameter w_;       // [units, in]            linear part
  nn::Parameter q_;       // [units*rank, in]       (Qᵏ)ᵀ rows, unit-major
  nn::Parameter lambda_;  // [units, rank]          diagonal of Λᵏ per unit
  nn::Parameter b_;       // [units]
  Tensor cached_input_;   // [N, in]
  Tensor cached_f_;       // [N, units*rank]
  linalg::PackedWeights packed_wq_;  // [W; Q]ᵀ, cached by freeze()
};

// ---------------------------------------------------------------------------
// General quadratic neuron [17] (include_linear) / pure quadratic [16].
//   y = xᵀ M x (+ wᵀx + b)
// Dense parameterization — O(n²) per unit; used at small n for tests,
// complexity benches and as the source of proposed-layer conversion.
// ---------------------------------------------------------------------------
class GeneralQuadraticDense : public nn::Module {
 public:
  GeneralQuadraticDense(index_t in_features, index_t units, Rng& rng,
                        bool include_linear = true,
                        std::string name = "general_fc");

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  Shape output_shape(const Shape& input_shape) const override;
  bool supports_forward_into() const override { return true; }
  void forward_into(const ConstTensorView& input, const TensorView& output,
                    Workspace& ws) override;

  // The dense-M forward is gemv-driven (no per-call weight pack), so
  // freeze only releases training caches.
  void freeze() override;

  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override { return name_; }

  index_t in_features() const { return in_; }
  index_t units() const { return units_; }
  bool include_linear() const { return include_linear_; }

  nn::Parameter& m() { return m_; }
  nn::Parameter& w() { return w_; }
  nn::Parameter& bias() { return b_; }

 private:
  index_t in_, units_;
  bool include_linear_;
  std::string name_;
  nn::Parameter m_;  // [units, in, in]
  nn::Parameter w_;  // [units, in]   (empty when !include_linear)
  nn::Parameter b_;  // [units]       (empty when !include_linear)
  Tensor cached_input_;
};

// ---------------------------------------------------------------------------
// Low-rank quadratic neuron [18]: y = xᵀ Q₁ Q₂ᵀ x + wᵀx + b.
// ---------------------------------------------------------------------------
class LowRankQuadraticDense : public nn::Module {
 public:
  LowRankQuadraticDense(index_t in_features, index_t units, index_t rank,
                        Rng& rng, std::string name = "lowrank_fc");

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  Shape output_shape(const Shape& input_shape) const override;
  bool supports_forward_into() const override { return true; }
  void forward_into(const ConstTensorView& input, const TensorView& output,
                    Workspace& ws) override;

  // Freeze stacks [Q₁; Q₂; W] into one PackedWeights: a frozen
  // forward_into is one gemm, bit-identical to the unfrozen three.
  void freeze() override;
  void unfreeze() override;

  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override { return name_; }

  index_t rank() const { return rank_; }

 private:
  index_t in_, units_, rank_;
  std::string name_;
  nn::Parameter q1_;  // [units*rank, in]
  nn::Parameter q2_;  // [units*rank, in]
  nn::Parameter w_;   // [units, in]
  nn::Parameter b_;   // [units]
  Tensor cached_input_;
  Tensor cached_a_;   // Q₁ᵀx per unit: [N, units*rank]
  Tensor cached_c_;   // Q₂ᵀx per unit: [N, units*rank]
  linalg::PackedWeights packed_;  // [Q₁; Q₂; W]ᵀ, cached by freeze()
};

// ---------------------------------------------------------------------------
// Rank-1 factored families.
//   kQuad1 [19]: y = (w₁ᵀx + b₁)(w₂ᵀx + b₂) + w₃ᵀ(x⊙x) + c
//   kQuad2 [21]: y = (w₁ᵀx)(w₂ᵀx) + w₃ᵀx + c
//   kBuKarpatne [23]: y = (w₁ᵀx)(w₂ᵀx) + w₁ᵀx + c
// ---------------------------------------------------------------------------
class FactoredQuadraticDense : public nn::Module {
 public:
  FactoredQuadraticDense(index_t in_features, index_t units, NeuronKind mode,
                         Rng& rng, std::string name = "factored_fc");

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  Shape output_shape(const Shape& input_shape) const override;
  bool supports_forward_into() const override { return true; }
  void forward_into(const ConstTensorView& input, const TensorView& output,
                    Workspace& ws) override;

  // Freeze caches W₁ᵀ, W₂ᵀ (and W₃ᵀ when present) as PackedWeights.
  void freeze() override;
  void unfreeze() override;

  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override { return name_; }

  NeuronKind mode() const { return mode_; }

 private:
  bool has_w3() const { return mode_ != NeuronKind::kBuKarpatne; }
  bool squares_input() const { return mode_ == NeuronKind::kQuad1; }
  bool has_inner_bias() const { return mode_ == NeuronKind::kQuad1; }

  index_t in_, units_;
  NeuronKind mode_;
  std::string name_;
  nn::Parameter w1_, w2_, w3_;  // [units, in] each (w3 empty for Bu)
  nn::Parameter b1_, b2_, c_;   // [units] (b1/b2 only for kQuad1)
  Tensor cached_input_;
  Tensor cached_a_;  // w₁ᵀx (+b₁): [N, units]
  Tensor cached_b_;  // w₂ᵀx (+b₂): [N, units]
  linalg::PackedWeights packed_w1_, packed_w2_, packed_w3_;
};

// Factory: builds a dense layer of `spec.kind` producing exactly
// `out_features` outputs.  For the proposed neuron, out_features must be a
// multiple of (rank+1) — the model layers size themselves accordingly.
nn::ModulePtr make_dense_neuron(const NeuronSpec& spec, index_t in_features,
                                index_t out_features, Rng& rng,
                                std::string name);

}  // namespace qdnn::quadratic
