//===- serve/Protocol.h - pathinvd wire protocol ---------------*- C++ -*-===//
//
// Part of the path-invariants reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pathinvd newline-delimited JSON protocol: one request object per
/// line in, one response object per line out, correlated by the
/// client-chosen "id". The same protocol runs over stdin/stdout and over
/// the unix-domain socket; responses may arrive out of submission order
/// (jobs finish when they finish), which is the point of the id.
///
/// Requests:
///   {"id":"j1","op":"verify","program":"proc f(n){...}",
///    "engine":"cegar|pdr|portfolio",       // optional, default portfolio
///    "timeout_s":30,"memory_mb":512,       // optional first-attempt limits
///    "budgets":{"sat_conflicts":200000},   // optional per-layer budgets
///    "max_attempts":3,                     // optional retry-ladder cap
///    "cache":true,"cert":false}            // optional
///   {"id":"s1","op":"stats"}
///   {"id":"p1","op":"ping"}
///   {"id":"d1","op":"shutdown"}            // graceful drain, then exit
///
/// Responses always carry "id" (empty when the request line had none) and
/// "status":
///   "ok"         — the operation completed; verify results carry
///                  "verdict":"safe|unsafe|unknown" plus attribution
///                  fields (see JobResponse);
///   "overloaded" — admission control shed the job (bounded queue full);
///                  resubmit later; nothing ran;
///   "draining"   — the server is shutting down; nothing ran;
///   "error"      — the request was malformed or the program failed to
///                  parse; "error" holds the reason.
///
/// "Exhaustion is never an outage": a verify whose retries all exhaust
/// their budgets still answers status "ok" with verdict "unknown" and a
/// machine-readable "unknown_reason" — status classes are about the
/// service, verdicts are about the program.
///
//===----------------------------------------------------------------------===//

#ifndef PATHINV_SERVE_PROTOCOL_H
#define PATHINV_SERVE_PROTOCOL_H

#include "core/Engine.h"
#include "serve/Json.h"

#include <string>

namespace pathinv {
namespace serve {

/// One decoded request line.
struct JobRequest {
  std::string Id;      ///< Echoed back verbatim; empty allowed.
  std::string Op;      ///< "verify" / "stats" / "ping" / "shutdown".
  std::string Program; ///< PIL source for "verify".
  EngineKind Engine = EngineKind::Portfolio;
  bool EngineSet = false; ///< Request named an engine explicitly.
  /// First-attempt limits; zero fields inherit the server defaults.
  ResourceLimits Limits;
  bool UseCache = true; ///< "cache":false forces recomputation.
  bool WantCert = false; ///< Attach the certificate text to Safe answers.
  int MaxAttempts = 0;  ///< Retry-ladder cap; 0 inherits the server's.
  /// Test hook (compiled to a no-op without PATHINV_FAULT_INJECT): arm
  /// the worker thread's deterministic fault harness with this countdown
  /// before the job runs. Lets the sweep inject faults *inside* a worker
  /// without touching other workers' jobs (the harness is thread-local;
  /// see support/FaultInject.h).
  uint64_t FaultArm = 0;
};

/// Parses one request line. \returns false with \p Error set on malformed
/// JSON, a missing/unknown "op", an unknown "engine", or an unknown
/// budget key; \p Out.Id is still filled when present so the error
/// response can be correlated.
bool parseRequest(const std::string &Line, JobRequest &Out,
                  std::string &Error);

/// One response, serializable as a single line.
struct JobResponse {
  std::string Id;
  std::string Status = "ok"; ///< "ok"/"overloaded"/"draining"/"error".
  std::string Error;         ///< Reason for non-"ok" statuses.
  char Verdict = 0;          ///< 'S'/'U'/'?'; 0 = not a verify result.
  std::string UnknownReason; ///< Machine-readable exhaustion attribution.
  std::string Note;          ///< Human-readable engine note.
  std::string EngineUsed;    ///< Engine of the deciding attempt.
  int Attempts = 0;          ///< Ladder attempts consumed (1 = no retry).
  /// "hit" (revalidated cache answer), "miss", "revalidation-failed"
  /// (entry rejected, recomputed), "bypass" (cache disabled for the job),
  /// or "" for non-verify ops.
  std::string CacheDisposition;
  std::string FingerprintHex; ///< Program fingerprint (verify only).
  /// Service time, from a worker's dequeue to the answer, including
  /// retries and backoff.
  double WallMs = 0;
  double QueueMs = 0; ///< Queue wait, from admission to a worker's dequeue.
  std::string Certificate;    ///< Present when requested and available.
  Json Extra;                 ///< "stats" payload for the stats op.
  bool HasExtra = false;

  /// Serializes as one newline-terminated NDJSON line.
  std::string toLine() const;
};

/// Convenience constructors for the rejection shapes.
JobResponse makeRejection(const std::string &Id, const std::string &Status,
                          const std::string &Why);

const char *verdictName(char Verdict); ///< "safe"/"unsafe"/"unknown".

} // namespace serve
} // namespace pathinv

#endif // PATHINV_SERVE_PROTOCOL_H
