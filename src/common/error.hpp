// Error types thrown by the library.
//
// Per project convention, unrecoverable user/programming errors (malformed
// assembly, invalid encodings, simulator misconfiguration) throw exceptions
// derived from `copift::Error`; hot simulation paths never throw.
#pragma once

#include <stdexcept>
#include <string>

namespace copift {

/// Base class for all errors raised by the COPIFT library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when an instruction cannot be encoded or decoded.
class EncodingError : public Error {
 public:
  explicit EncodingError(const std::string& what) : Error("encoding error: " + what) {}
};

/// Raised by the assembler on malformed source (carries line information).
class AsmError : public Error {
 public:
  AsmError(const std::string& what, unsigned line)
      : Error("asm error at line " + std::to_string(line) + ": " + what), line_(line) {}
  [[nodiscard]] unsigned line() const noexcept { return line_; }

 private:
  unsigned line_;
};

/// Raised by the simulator on fatal machine conditions (bad PC, misaligned
/// access, unsupported instruction reaching execute).
class SimError : public Error {
 public:
  explicit SimError(const std::string& what) : Error("sim error: " + what) {}
  /// `fault` with `where` appended, keeping its single "sim error:" prefix.
  SimError(const SimError& fault, const std::string& where)
      : Error(std::string(fault.what()) + where) {}
};

/// Raised by the COPIFT toolkit on invalid transformation requests
/// (e.g. a partition with a cyclic precedence relation).
class TransformError : public Error {
 public:
  explicit TransformError(const std::string& what) : Error("transform error: " + what) {}
};

void check(bool condition, const std::string& message);

}  // namespace copift
