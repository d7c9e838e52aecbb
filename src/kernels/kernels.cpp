#include "kernels/kernels.hpp"

namespace copift::kernels {

bool is_transcendental(std::string_view name) {
  return name == "exp" || name == "log";
}

}  // namespace copift::kernels
