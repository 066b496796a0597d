// machine_family.hpp — named machine families over what-if knob grids.
//
// The paper's §7 design evaluation sweeps machine parameters ("what if the
// interconnect had a quarter of the latency?"). PR 2 made a single what-if
// point registrable; a MachineFamily makes the whole *grid* declarative:
// pick a base machine from the registry ("ipsc860", "fattree", ...), attach
// value axes to the WhatIfParams knobs, and the family generates one
// deterministically named machine point per grid cell, each auto-registered
// as a registry factory that derives from the base via
// machine::apply_whatif. Studies then sweep machine names like any other
// ExperimentPlan axis — no manual register_whatif calls.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "api/machine_registry.hpp"
#include "machine/whatif.hpp"

namespace hpf90d::study {

/// One design knob of machine::WhatIfParams.
enum class Knob { Latency, Bandwidth, Cpu };

/// Stable lower-case knob label used in generated machine names and
/// exports: "latency" | "bandwidth" | "cpu".
[[nodiscard]] std::string_view knob_name(Knob k) noexcept;

/// One value axis of the family grid.
struct KnobAxis {
  Knob knob = Knob::Latency;
  std::vector<double> values;
};

/// One generated machine point: the registry name plus the knob settings
/// it stands for.
struct MachinePoint {
  std::string name;
  machine::WhatIfParams params;
};

class MachineFamily {
 public:
  /// `base` names the registry machine the knobs derive from; it is
  /// resolved when the family is registered, so user-registered machines
  /// work as bases too.
  explicit MachineFamily(std::string name, std::string base = "ipsc860")
      : name_(std::move(name)), base_(std::move(base)) {}

  /// Sets (or replaces) the value axis for one knob. Axis order is the
  /// order of first appearance; re-setting a knob keeps its position.
  MachineFamily& axis(Knob knob, std::vector<double> values);

  /// Re-targets the family at a different base machine, keeping the axes.
  void set_base(std::string base) { base_ = std::move(base); }

  [[nodiscard]] const std::string& base() const noexcept { return base_; }
  [[nodiscard]] const std::vector<KnobAxis>& axes() const noexcept { return axes_; }

  /// Grid size: the product of the axis lengths (1 with no axes — the
  /// bare base point).
  [[nodiscard]] std::size_t size() const;

  /// The full grid in deterministic order: earlier axes vary slowest,
  /// values in the order given. Names are
  /// "<family>/<knob>=<value>[+<knob>=<value>...]" (values rendered with
  /// %g), stable across runs, worker counts, and platforms — and free of
  /// commas, so CSV exports carry them verbatim.
  [[nodiscard]] std::vector<MachinePoint> points() const;

  /// Registers every grid point into `registry` (same-named entries are
  /// replaced) and returns the registered names in grid order. The point
  /// factories resolve base() through `registry` itself — the registry
  /// lock is recursive, and composition with builtins or user machines
  /// comes for free — so `registry` must outlive the registrations.
  /// Throws std::out_of_range when base() is not registered.
  std::vector<std::string> register_into(api::MachineRegistry& registry) const;

  /// Throws std::invalid_argument on an empty family/base name, an empty
  /// or non-positive value axis, or a duplicate knob.
  void validate() const;

 private:
  std::string name_;
  std::string base_;
  std::vector<KnobAxis> axes_;
};

}  // namespace hpf90d::study
