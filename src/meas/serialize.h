// Dataset serialization.
//
// Regenerated traces are shareable: a dataset round-trips through a simple
// line-oriented text format (one header block, one line per measurement).
// The reader is strict — a malformed file yields an error message, never a
// partially filled dataset — so downstream analyses can trust loaded data.
//
//   pathsel-dataset v1
//   name UW3
//   kind traceroute            # or: tcp
//   duration_ms 604800000
//   first_sample_loss_only 0
//   episodes 0
//   hosts 3 0 5 9
//   m <when_ms> <src> <dst> <episode> <completed>
//     traceroute: ... <lost0> <rtt0> <lost1> <rtt1> <lost2> <rtt2> <n_as> <as...>
//     tcp:        ... <bandwidth_kBps> <rtt_ms> <loss_rate>
//   Fault-aware campaigns append optional trailing tokens to a measurement:
//     f <reason>    failure reason code (FailureReason), written when nonzero
//     a <attempts>  attempts including retries, written when > 1
//   Legacy datasets contain neither token, so writing a fault-free dataset
//   reproduces the historical byte stream exactly.
//
// Token grammar.  Lines end at '\n' (a final line may lack it); empty lines
// between measurements are skipped.  Within a line, tokens are separated by
// runs of C-locale whitespace other than newline (' ', '\t', '\r', '\v',
// '\f'), and a whole token is exactly one value:
//   integer  '-'? digit+            (no leading '+'; '-' only where the field
//                                    is signed, never on a count)
//   real     '-'? decimal as accepted by std::from_chars in general format
//            (digits with an optional '.' and exponent; no leading '+', no
//            hex); the reader additionally requires it finite, non-negative
//            and not underflowing to zero from a nonzero literal
// The writer prints reals with std::to_chars(general, 17), i.e. "%.17g".
// Header lines are "<key> <value>": the header line must be exactly
// "pathsel-dataset v1", the value is the rest of the line after one space
// (a key alone on its line, with no separator after it, is an error),
// `kind` and `first_sample_loss_only` must match exactly, and the two numeric
// header values may be preceded (not followed) by separators.
//
// The reader validates everything it parses — host ids must be declared in
// the hosts line, RTTs/rates must be finite and in range, counts must be
// sane — and rejects trailing garbage; a malformed or truncated file yields
// an error, never a crash or a partially filled dataset.  It reads a stream
// in 64 KiB chunks and never holds the whole file: beyond the parsed Dataset
// it keeps one chunk, or about twice the longest line if that is longer.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "meas/dataset.h"

namespace pathsel::meas {

/// Writes the dataset; the stream's failbit reflects I/O errors.  The
/// stream's formatting state (precision, flags) is neither used nor changed.
void write_dataset(std::ostream& os, const Dataset& dataset);

/// Parses a dataset.  On failure returns nullopt and, if `error` is
/// non-null, stores a human-readable reason.  A read error of the underlying
/// stream buffer is a failure too.
///
/// Beyond per-row validation, the reader enforces a whole-file invariant:
/// fault-aware campaigns record a failure reason on *every* failed row, so a
/// file that mixes fault-aware markers (any `f`/`a` token) with failed rows
/// lacking one is corrupt — most likely spliced from two different runs —
/// and is rejected.  Legacy fault-free datasets carry neither token and are
/// unaffected.
[[nodiscard]] std::optional<Dataset> read_dataset(std::istream& is,
                                                  std::string* error = nullptr);

/// Same as above over text already in memory: the same parser, no copy.
[[nodiscard]] std::optional<Dataset> read_dataset(std::string_view text,
                                                  std::string* error = nullptr);

/// Writes one measurement row (the full "m ..." line, newline included)
/// exactly as write_dataset does.  Checkpoints embed pending measurements
/// with this writer so a resumed campaign re-serializes byte-identically.
void write_measurement(std::ostream& os, const Measurement& m,
                       MeasurementKind kind);

/// Parses one measurement row as written by write_measurement, with the same
/// strict validation read_dataset applies except the declared-host check
/// (a lone row has no hosts line).  On failure returns false and, if `error`
/// is non-null, stores a human-readable reason.
[[nodiscard]] bool parse_measurement(std::string_view line,
                                     MeasurementKind kind, Measurement& out,
                                     std::string* error = nullptr);

}  // namespace pathsel::meas
