// fxnet internal: the on-wire piece header shared by every transport.
#pragma once

#include <cstdint>

namespace fxpar::net::detail {

/// High bit of the wire kind marks a non-final piece of a streamed frame.
inline constexpr std::uint32_t kPartialFlag = 0x80000000u;

/// On-wire piece header (same layout in the shm rings and on TCP streams).
/// Every piece of a streamed frame repeats the frame's metadata; the
/// consumer keeps the first piece's copy.
struct WireHdr {
  std::uint32_t len;   ///< payload bytes in this piece
  std::uint32_t kind;  ///< FrameKind, possibly | kPartialFlag
  std::int32_t src;
  std::uint32_t pad;
  std::uint64_t tag;
  std::uint64_t trace_id;  ///< Frame::trace_id
  double sent_at;          ///< Frame::sent_at
};
static_assert(sizeof(WireHdr) == 40);

}  // namespace fxpar::net::detail
