#include "serve/artifact_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "compiler/serialize.hpp"
#include "support/codec.hpp"
#include "support/text.hpp"

namespace hpf90d::serve {

namespace fs = std::filesystem;

namespace {

std::string artifact_name(std::string_view key) {
  return support::strfmt("%016llx.art",
                         static_cast<unsigned long long>(support::fnv1a64(key)));
}

std::optional<std::string> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  return std::move(buf).str();
}

/// Artifact framing: "hpf90d-artifact 1 <keylen>\n<key>\n<body>". Returns
/// the body, or nullopt when the frame is malformed or (when `key` is
/// non-null) the embedded key mismatches.
std::optional<std::string> unwrap(const std::string& text, const std::string* key) {
  constexpr std::string_view kTag = "hpf90d-artifact 1 ";
  if (text.compare(0, kTag.size(), kTag) != 0) return std::nullopt;
  std::size_t pos = kTag.size();
  const std::size_t eol = text.find('\n', pos);
  if (eol == std::string::npos) return std::nullopt;
  const auto keylen = support::parse_uint(std::string_view(text).substr(pos, eol - pos));
  if (!keylen) return std::nullopt;
  pos = eol + 1;
  // the key plus its newline must fit; compared without adding to keylen
  if (text.size() - pos <= *keylen || text[pos + *keylen] != '\n') return std::nullopt;
  if (key != nullptr && text.compare(pos, *keylen, *key) != 0) return std::nullopt;
  return text.substr(pos + *keylen + 1);
}

std::string wrap(const std::string& key, std::string_view body) {
  std::string out = "hpf90d-artifact 1 " + std::to_string(key.size()) + '\n';
  out += key;
  out += '\n';
  out += body;
  return out;
}

}  // namespace

ArtifactStore::ArtifactStore(std::string root) : root_(std::move(root)) {
  std::error_code ec;
  fs::create_directories(fs::path(root_) / "layouts", ec);
  fs::create_directories(fs::path(root_) / "programs", ec);
  if (ec) {
    throw std::runtime_error("ArtifactStore: cannot create " + root_ + ": " +
                             ec.message());
  }
}

std::optional<compiler::DataLayout> ArtifactStore::load_layout(const std::string& key) {
  const fs::path path = fs::path(root_) / "layouts" / artifact_name(key);
  const auto text = slurp(path);
  if (!text) return std::nullopt;
  const auto body = unwrap(*text, &key);
  if (!body) return std::nullopt;
  try {
    compiler::DataLayout layout = compiler::deserialize_layout(*body);
    ++layouts_loaded_;
    return layout;
  } catch (const std::exception&) {
    return std::nullopt;  // corrupt artifact: a miss, the session rebuilds
  }
}

void ArtifactStore::store_layout(const std::string& key,
                                 const compiler::DataLayout& layout) {
  write_artifact("layouts", key, compiler::serialize_layout(layout));
  ++layouts_stored_;
}

void ArtifactStore::store_program(const std::string& key,
                                  const api::ProgramRecipe& recipe) {
  write_artifact("programs", key,
                 compiler::serialize_recipe(recipe.source, recipe.overrides,
                                            recipe.options));
  ++programs_stored_;
}

std::vector<api::ProgramRecipe> ArtifactStore::load_programs() {
  std::vector<api::ProgramRecipe> out;
  std::error_code ec;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(fs::path(root_) / "programs", ec)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  // Deterministic warm-start order regardless of directory enumeration.
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    const auto text = slurp(path);
    if (!text) continue;
    const auto body = unwrap(*text, nullptr);
    if (!body) continue;
    try {
      compiler::ParsedRecipe recipe = compiler::deserialize_recipe(*body);
      out.push_back(api::ProgramRecipe{std::move(recipe.source),
                                       std::move(recipe.overrides), recipe.options});
    } catch (const std::exception&) {
      // corrupt recipe: skip — warm start is best-effort
    }
  }
  return out;
}

ArtifactStore::DiskUsage ArtifactStore::disk_usage() const {
  DiskUsage usage;
  for (const char* dir : {"layouts", "programs"}) {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(fs::path(root_) / dir, ec)) {
      std::error_code file_ec;
      if (!entry.is_regular_file(file_ec) || file_ec) continue;
      const std::uintmax_t size = entry.file_size(file_ec);
      if (file_ec) continue;
      usage.bytes += static_cast<std::uint64_t>(size);
      ++usage.files;
    }
  }
  return usage;
}

void ArtifactStore::write_artifact(const std::string& dir, const std::string& key,
                                   std::string_view body) {
  const fs::path target = fs::path(root_) / dir / artifact_name(key);
  const fs::path tmp =
      target.parent_path() /
      support::strfmt(".tmp.%ld.%llu", static_cast<long>(::getpid()),
                      static_cast<unsigned long long>(tmp_seq_.fetch_add(1)));
  const std::string payload = wrap(key, body);
  const std::lock_guard<std::mutex> lock(write_mutex_);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("ArtifactStore: cannot write " + tmp.string());
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!out.good()) {
      throw std::runtime_error("ArtifactStore: short write to " + tmp.string());
    }
  }
  std::error_code ec;
  fs::rename(tmp, target, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw std::runtime_error("ArtifactStore: cannot publish " + target.string());
  }
}

}  // namespace hpf90d::serve
