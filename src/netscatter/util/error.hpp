// Error types for the NetScatter library.
//
// Per C++ Core Guidelines E.2 we throw exceptions for contract violations
// (programming errors, impossible configurations), and use status/optional
// return values for *expected* runtime outcomes such as CRC failure or a
// missed packet detection.
#pragma once

#include <stdexcept>
#include <string>

namespace ns::util {

/// Base class for all exceptions thrown by the NetScatter library.
class error : public std::runtime_error {
public:
    explicit error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a function argument violates its documented contract
/// (e.g. a non-power-of-two FFT size, a cyclic shift outside [0, 2^SF)).
class invalid_argument : public error {
public:
    explicit invalid_argument(const std::string& what) : error(what) {}
};

/// Throws ns::util::invalid_argument with `message` when `condition` is false.
inline void require(bool condition, const std::string& message) {
    if (!condition) throw invalid_argument(message);
}

/// Literal-message overload: contract checks sit on per-bin hot paths
/// (peak searches run two per device per symbol), and the std::string
/// overload would heap-allocate the message on EVERY call, success
/// included. This one materializes the string only on failure.
inline void require(bool condition, const char* message) {
    if (!condition) throw invalid_argument(message);
}

}  // namespace ns::util
