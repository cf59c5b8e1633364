(** Structured per-request trace sink: one JSON object per line.

    A sink wraps an output channel; records are flat string-keyed field
    lists, written in the order given with a [kind] discriminator first
    and a per-sink monotonically increasing [seq] second. Producers
    (simulator, algorithms) emit through the process-global {e current}
    sink via {!emit_current}, which is a no-op while no sink is
    installed — so tracing, like metrics, costs one check when off. *)

type t

type value =
  | Int of int
  | Float of float  (** non-finite values are written as [null] *)
  | String of string
  | Bool of bool

(** [open_file path] opens [path] in {e append} mode (creating it when
    missing), so resumed sessions — and any two sinks pointed at one
    path — extend the event log instead of truncating each other;
    {!close} closes it. The per-sink [seq] still starts at 0. *)
val open_file : string -> t

(** [emit t ~kind fields] writes one line:
    [{"kind":<kind>,"seq":<n>,<fields...>}] and flushes the channel, so
    a crash loses at most the record being written. Emission is atomic
    per record — a single-writer mutex serializes the seq draw and the
    whole-line write — so concurrent sessions on different domains
    sharing one sink never interleave torn lines or duplicate sequence
    numbers. *)
val emit : t -> kind:string -> (string * value) list -> unit

val close : t -> unit

(** {1 The process-global current sink} *)

val install : t -> unit

(** [uninstall ()] detaches the current sink without closing it. *)
val uninstall : unit -> unit

val installed : unit -> bool

(** [emit_current ~kind fields] emits through the installed sink, if
    any. *)
val emit_current : kind:string -> (string * value) list -> unit
