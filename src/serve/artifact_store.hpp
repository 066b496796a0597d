// artifact_store.hpp — content-addressed disk persistence of artifacts.
//
// The daemon's durability tier: api::ArtifactSpill implemented over a
// plain directory tree,
//
//     <root>/layouts/<fnv64(key)>.art    serialized DataLayout
//     <root>/programs/<fnv64(key)>.art   serialized program recipe
//
// Every file embeds its full cache key (length-prefixed) ahead of the
// artifact text; load verifies the embedded key against the requested one,
// so a 64-bit filename collision degrades to a miss instead of serving
// the wrong artifact. Writes go to a temp file in the same directory and
// rename into place — a crashed daemon leaves complete artifacts or
// leftovers, never torn files — and corrupt/unreadable files are treated
// as misses (the session rebuilds and overwrites them).
//
// Thread safety: all methods may be called concurrently (the session's
// worker pool stores layouts from many threads). Loads are lock-free;
// writes serialize on a mutex to keep the temp-name counter simple.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "api/spill.hpp"

namespace hpf90d::serve {

class ArtifactStore : public api::ArtifactSpill {
 public:
  /// Creates <root>/layouts and <root>/programs (throws std::runtime_error
  /// when the tree cannot be created).
  explicit ArtifactStore(std::string root);

  std::optional<compiler::DataLayout> load_layout(const std::string& key) override;
  void store_layout(const std::string& key, const compiler::DataLayout& layout) override;
  void store_program(const std::string& key, const api::ProgramRecipe& recipe) override;
  std::vector<api::ProgramRecipe> load_programs() override;


  /// Lifetime I/O counters (diagnostics; surfaced in ServerStats).
  [[nodiscard]] std::size_t layouts_stored() const noexcept {
    return layouts_stored_.load();
  }
  [[nodiscard]] std::size_t layouts_loaded() const noexcept {
    return layouts_loaded_.load();
  }
  [[nodiscard]] std::size_t programs_stored() const noexcept {
    return programs_stored_.load();
  }

  /// On-disk footprint of the store (layouts + programs).
  struct DiskUsage {
    std::uint64_t bytes = 0;
    std::uint64_t files = 0;
  };

  /// Scans both artifact directories (regular files only; in-flight temp
  /// files count too — they occupy the same disk). Unreadable entries are
  /// skipped, so a concurrent rename never fails the scan.
  [[nodiscard]] DiskUsage disk_usage() const;

 private:
  void write_artifact(const std::string& dir, const std::string& key,
                      std::string_view body);

  std::string root_;
  std::mutex write_mutex_;
  std::atomic<std::size_t> layouts_stored_{0};
  std::atomic<std::size_t> layouts_loaded_{0};
  std::atomic<std::size_t> programs_stored_{0};
  std::atomic<std::uint64_t> tmp_seq_{0};
};

}  // namespace hpf90d::serve
