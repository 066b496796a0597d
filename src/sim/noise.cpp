#include "sim/noise.hpp"

namespace hpf90d::sim {

NoiseStream::NoiseStream(std::uint64_t seed) : seed_(seed), engine_(seed) {
  // Pair k reads on from word k; a word no earlier pair reached is drawn
  // from the engine as the pair first asks for it.
  struct Next {
    NoiseStream* stream;
    std::size_t* pos;
    std::uint64_t operator()() const {
      std::vector<std::uint64_t>& words = stream->words_;
      if (*pos == words.size()) words.push_back(stream->engine_());
      return words[(*pos)++];
    }
  };
  words_.reserve(kMemo + 64);  // a pair past the memo's end rarely reads far
  pairs_.reserve(kMemo);
  reads_.reserve(kMemo);
  for (std::size_t k = 0; k < kMemo; ++k) {
    std::size_t pos = k;
    detail::WordSource<Next> words{{this, &pos}};
    const detail::NormalPair p = detail::draw_normal_pair(words);
    if (pos - k > 255) break;  // 127 or more rejections in a row: drawn live
    pairs_.push_back(p);
    reads_.push_back(static_cast<std::uint8_t>(pos - k));
  }
}

std::size_t NoiseStream::bytes() const noexcept {
  return sizeof(*this) + words_.capacity() * sizeof(std::uint64_t) +
         pairs_.capacity() * sizeof(detail::NormalPair) + reads_.capacity();
}

}  // namespace hpf90d::sim
