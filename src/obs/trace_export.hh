/**
 * @file
 * Chrome trace_event JSON exporter.
 *
 * Serializes recorded events into the JSON Array Format understood by
 * chrome://tracing and Perfetto (ui.perfetto.dev): each event becomes
 * one object with ph/cat/name/ts/pid/tid/args, plus process_name
 * metadata events naming the control plane and worker-node tracks.
 * Timestamps are already in microseconds (1 Tick = 1 µs), the unit the
 * format expects.
 *
 * This is the only place a recorded value is rendered: integer args
 * print as bare %lld numbers, reals as %.3f, text as an escaped JSON
 * string.
 */

#ifndef SPECFAAS_OBS_TRACE_EXPORT_HH
#define SPECFAAS_OBS_TRACE_EXPORT_HH

#include <string>
#include <vector>

#include "obs/trace_event.hh"
#include "obs/trace_recorder.hh"

namespace specfaas::obs {

/** Escape @p s for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string& s);

/** Render @p events as a Chrome trace_event JSON document. */
std::string toChromeTraceJson(const std::vector<TraceEvent>& events);

/**
 * Write @p recorder's buffered events to @p path as Chrome trace
 * JSON, the same bytes toChromeTraceJson() renders. Streams from the
 * ring through a bounded buffer, so the export holds no copy of the
 * events or of the document.
 * @return false when the file cannot be opened or written
 */
bool writeChromeTrace(const TraceRecorder& recorder,
                      const std::string& path);

} // namespace specfaas::obs

#endif // SPECFAAS_OBS_TRACE_EXPORT_HH
