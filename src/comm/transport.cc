#include "src/comm/transport.h"

namespace malt {

Result<TransportKind> ParseTransportKind(const std::string& s) {
  if (s == "sim") {
    return TransportKind::kSim;
  }
  if (s == "shmem") {
    return TransportKind::kShmem;
  }
  return InvalidArgumentError("unknown transport '" + s + "' (sim|shmem)");
}

std::string ToString(TransportKind kind) {
  switch (kind) {
    case TransportKind::kSim:
      return "sim";
    case TransportKind::kShmem:
      return "shmem";
  }
  return "?";
}

}  // namespace malt
