(** Structured observability over the virtual clock.

    The paper's entire evaluation (§5, Figs. 10–13, Tables 1–3) is about
    where time goes — concretization cost, wrapper overhead, NFS metadata
    latency — and this module is the substrate that measures it:
    hierarchical spans, monotonically increasing counters, and scalar
    histograms, recorded against a {e virtual} clock so that traces are
    deterministic (two identical runs produce byte-identical traces;
    timestamps never come from wall time).

    The clock has two sources of advancement:
    - {!advance} charges simulated work — the build simulator forwards
      every virtual-clock charge (metadata ops, compile seconds, wrapper
      overhead) here, so span durations reproduce the cost model of
      Figs. 10/11;
    - every recorded event additionally ticks the clock by a fixed
      epsilon (1 virtual µs), so phases with no cost model of their own
      (e.g. concretizer iterations) still have strictly ordered,
      non-zero-duration spans.

    A disabled sink ({!disabled}) makes every operation a constant-time
    no-op that allocates nothing, so instrumentation can stay in the hot
    paths unconditionally. *)

type t

val disabled : t
(** The no-op sink: {!enabled} is [false], every operation returns
    immediately without recording or allocating. *)

val create : ?tick:float -> unit -> t
(** A fresh recording sink. [tick] is the epsilon (virtual seconds)
    added to the clock per recorded event; default [1e-6]. *)

val enabled : t -> bool

val now : t -> float
(** Current virtual-clock reading in seconds ([0.] when disabled). *)

val advance : t -> float -> unit
(** Charge simulated seconds to the virtual clock. Negative or NaN
    charges are ignored. *)

(** {1 Spans} *)

val span :
  t ->
  ?cat:string ->
  ?args:(string * string) list ->
  string ->
  (unit -> 'a) ->
  'a
(** [span t name f] runs [f] inside a span: a begin event before, an end
    event after — also on exception (re-raised). Spans nest. *)

val span_begin :
  t -> ?cat:string -> ?args:(string * string) list -> string -> unit

val span_end : t -> unit
(** Close the innermost open span; no-op when none is open. *)

(** {1 Counters and histograms} *)

val count : t -> string -> int -> unit
(** [count t name n] adds [n] to the named counter. *)

val counter : t -> string -> int
(** Current value ([0] when unset or disabled). *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

type hist_summary = {
  h_count : int;
  h_min : float;
  h_max : float;
  h_sum : float;
}

val observe : t -> string -> float -> unit
(** Record a sample into the named histogram. *)

val histograms : t -> (string * hist_summary) list
(** All histogram summaries, sorted by name. *)

(** {1 Annotations} *)

val annotate : t -> ?cat:string -> string -> unit
(** Record an instant event — e.g. one concretizer policy decision. *)

(** {1 Reports} *)

type phase_row = {
  ph_name : string;
  ph_count : int;  (** spans with this name *)
  ph_total : float;  (** inclusive virtual seconds *)
  ph_self : float;  (** exclusive of child spans *)
}

val phase_rows : t -> phase_row list
(** Span durations aggregated by name, in the order each name first
    {e began} (so parents list before children even though children close
    first). Unclosed spans extend to the current clock. *)

val timings_table : t -> string
(** The human-readable [--timings] phase table. *)

val stats_table : t -> string
(** Counters and histogram summaries, the payload of [spack stats]. *)

val to_jsonl : t -> string
(** The session as a deterministic JSONL structured-event log: one JSON
    object per line — a [meta] header, then every recorded event in
    order ([span_begin]/[span_end]/[instant], timestamps in virtual
    seconds on the microsecond grid), then the [counter] and
    [histogram] summaries sorted by name. Byte-identical across
    identical runs; validated by [spack trace-validate]. *)

val to_chrome_trace : t -> Ospack_json.Json.t
(** The session as a Chrome trace-event object
    ([chrome://tracing] / Perfetto): [{"traceEvents": [...]}] with
    [B]/[E] duration events and [i] instant events, timestamps in
    virtual microseconds, plus [ospackCounters] and [ospackHistograms]
    aggregates. *)
