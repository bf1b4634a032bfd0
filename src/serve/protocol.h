// crp::serve — the crpd wire protocol.
//
// Line-based, "\n"-terminated, loopback-only. One connection carries any
// number of pipelined requests; replies come in request order, interleaved
// (after a WATCH) with asynchronous EVENT/DONE lines for watched jobs.
//
//   SUBMIT <tenant> <target-id> [k=v]...   -> OK <job-id> | ERR <code> <msg>
//   STATUS <job-id>                        -> OK <state> <done>/<total> <error|-> [trace=<id>]
//   WATCH  <job-id>                        -> OK watching <job-id>
//                                             ... EVENT <job-id> <state> <done>/<total> <step|-> [trace=<id>] ...
//                                             DONE <job-id> <state> cached=<0|1> [trace=<id>]
//   FETCH  <job-id>                        -> REPORT <nbytes> [trace=<id>]\n<nbytes of report>
//   CANCEL <job-id>                        -> OK cancelling <job-id>
//   STATS                                  -> OK <k>=<v> ...
//   PING                                   -> PONG
//   QUIT                                   -> (connection closes)
//
// SUBMIT knobs (k=v): seed=<u64>, priority=<int>, cache=<0|1>,
// discover=<u64 budget>, verify=<u64 budget>, plan=<0|1>, trace=<u64>.
// Unknown knobs are a 400; malformed values are a 400. Tenants are
// [A-Za-z0-9_-]{1,64}. A job's verify parallelism is the operator's
// `crpd --jobs` setting, never a client's.
//
// trace=: pin an obs::JobTracer trace id (the daemon assigns one when
// omitted). STATUS/EVENT/DONE/REPORT echo the id as a trailing
// "trace=<id>" token — only for traced jobs, so untraced replies keep
// their historical bytes.
//
// ERR codes follow the obvious HTTP analogy: 400 bad request, 404 unknown
// target/job, 409 wrong state (e.g. FETCH before DONE), 429 admission
// rejected (per-tenant quota or submission-rate window), 500 internal.
//
// This header is the pure framing/parsing half (no sockets, no queue):
// both the daemon and the client link it, and tests exercise it directly.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "pipeline/job_queue.h"
#include "util/common.h"

namespace crp::serve {

/// Accumulate stream fragments, hand out complete "\n"-terminated lines
/// (terminator stripped; a trailing "\r" is stripped too). Bounded by the
/// caller checking size() against a protocol limit.
class LineBuffer {
 public:
  void append(std::string_view data) { buf_.append(data.data(), data.size()); }
  /// Pop the next complete line into *line; false when none is buffered.
  bool next(std::string* line);
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// One parsed request line: whitespace-split verb + arguments.
struct Request {
  std::string verb;
  std::vector<std::string> args;
};

Request parse_request(std::string_view line);

/// Is `tenant` a valid tenant name ([A-Za-z0-9_-]{1,64})?
bool valid_tenant(std::string_view tenant);

/// Strict u64 parse (strtoull bases, whole-token match — trailing garbage
/// rejects). Shared by SUBMIT knob values and job-id arguments.
bool parse_u64(std::string_view v, u64* out);

/// Apply one "k=v" SUBMIT knob onto `spec`. False + *err on unknown knob
/// or malformed value.
bool apply_knob(std::string_view kv, pipeline::JobSpec* spec, std::string* err);

// --- reply formatting (every line includes the trailing "\n") -----------------

std::string ok_line(std::string_view detail);
std::string err_line(int code, std::string_view msg);
std::string event_line(const pipeline::JobEvent& ev);
std::string done_line(const pipeline::JobEvent& ev);
std::string status_line(const pipeline::JobResult& r);
/// "REPORT <nbytes>[ trace=<id>]\n" + the report bytes.
std::string report_frame(std::string_view report, u64 trace = 0);

}  // namespace crp::serve
