(** JSONL wire format of the serving layer.

    Requests arrive one JSON object per line, [{"site":s,"demand":[e,...]}];
    each produces one decision record. The {e canonical} decision encoding
    (no [latency_s] field, floats printed [%.17g]) is what lands in the
    checkpoint's decision log, so an interrupted-and-resumed session can be
    diffed byte-for-byte against a straight-through run; the interactive
    stream adds the per-step latency on top.

    Both directions skip the general machinery on the serving path.
    {!parse_request} and {!parse_wal_line} first scan the canonical shape
    [{"index":k,"site":s,"demand":[e,...]}] ("index" optional for a
    request) directly: JSON whitespace between tokens, every number plain
    digits without a leading zero and at most 15 of them, every value in
    range. Any other line — another key order, an extra or repeated key,
    an escape, a sign, a fraction, an out-of-range value, bad JSON — goes
    to {!Omflp_prelude.Minijson} unchanged, so the result (request or
    error message) is always the one the Minijson reading gives. The
    encoders write integers digit by digit and floats through
    {!Omflp_prelude.Numfmt.add_g17}, the bytes of [Printf "%.17g"];
    [latency_s] is [%.6f] through the same C conversion [Printf] uses.
    The handshake lines are parsed with Minijson only. *)

(** A decision record: what happened to request [index]. [opened] lists
    facilities opened {e by this step} in opening order; the cost fields
    are the running totals after the step. *)
type decision = {
  index : int;
  site : int;
  demand : int list;
  service : Omflp_core.Service.t;
  opened : Omflp_core.Facility.t list;
  construction : float;
  assignment : float;
  total : float;
}

(** [parse_request ~n_sites ~n_commodities line] parses and validates one
    input line. Errors are human-readable and never exceptions. *)
val parse_request :
  n_sites:int ->
  n_commodities:int ->
  string ->
  (Omflp_instance.Request.t, string) result

(** [request_line r] is the client request line,
    [{"site":s,"demand":[...]}], that {!parse_request} reads. *)
val request_line : Omflp_instance.Request.t -> string

(** [request_to_json ~index r] is the canonical WAL encoding,
    [{"index":k,"site":s,"demand":[...]}]: {!request_line} with the
    index in front. *)
val request_to_json : index:int -> Omflp_instance.Request.t -> string

(** [request_to_buffer ~index b r] appends [request_to_json ~index r]
    to [b] (no trailing newline). *)
val request_to_buffer :
  index:int -> Buffer.t -> Omflp_instance.Request.t -> unit

(** [parse_wal_line ~n_sites ~n_commodities line] reads back a
    {!request_to_json} line, parsing it once: a missing or non-integer
    ["index"] is refused first, then the request fields as
    {!parse_request} refuses them. *)
val parse_wal_line :
  n_sites:int ->
  n_commodities:int ->
  string ->
  (int * Omflp_instance.Request.t, string) result

(** [decision_to_json ?latency_s d] encodes a decision record on one line.
    Omit [latency_s] for the canonical (replay-stable) form. *)
val decision_to_json : ?latency_s:float -> decision -> string

(** [decision_to_buffer ?latency_s b d] appends the same encoding to a
    caller-owned buffer (no trailing newline). The serving hot path
    reuses one buffer per connection/session instead of allocating a
    fresh one per decision. *)
val decision_to_buffer : ?latency_s:float -> Buffer.t -> decision -> unit

(** {1 Session-open handshake}

    A multi-session connection ({!Server}) opens with one client hello
    line, [{"session":ID,"algo":...,"seed":...,"snapshot_every":...,
    "checkpoint":...,"resume":...}] — every field but [session] optional,
    defaults coming from the server's configuration. The server answers
    with an ack, [{"ok":true,"session":...,"algo":...,"served":n,
    "reemitted":k}], followed by [k] re-emitted crash-window decision
    lines (resume only); a refused handshake gets
    [{"ok":false,"error":...}] and the connection is closed. After the
    ack the stream is the plain request/decision JSONL of stdin mode, and
    a client that half-closes its sending side receives a final
    [{"done":true,"served":n,"total":c}] record. *)

type hello = {
  h_session : string;  (** 1-64 chars of [A-Za-z0-9._-], leading alnum *)
  h_algo : string option;
  h_seed : int option;
  h_snapshot_every : int option;
  h_checkpoint : bool option;
      (** [Some false] opts out of checkpointing even under a server
          checkpoint root; [None] follows the server default. *)
  h_resume : bool;
}

(** [valid_session_id id]: [id] is 1-64 chars of [A-Za-z0-9._-] and
    starts with a letter or digit. Session ids name checkpoint
    directories, so this is the one rule that keeps an id inside the
    checkpoint root (no ["."], [".."] or ["/"]). *)
val valid_session_id : string -> bool

(** [invalid_session_id id] is the refusal message for an id that fails
    {!valid_session_id}. *)
val invalid_session_id : string -> string

(** [parse_hello line] decodes a client hello, refusing an invalid
    session id with {!invalid_session_id}. *)
val parse_hello : string -> (hello, string) result

(** [hello_to_json h] is the canonical client hello line (optional fields
    omitted when [None]). *)
val hello_to_json : hello -> string

type ack = {
  a_session : string;
  a_algo : string;
  a_served : int;  (** requests already served before this connection *)
  a_reemitted : int;  (** crash-window decisions re-sent after the ack *)
}

val ack_to_json : ack -> string

(** [error_to_json msg] is [{"ok":false,"error":msg}] — the refused
    handshake and mid-stream bad-request shape. *)
val error_to_json : string -> string

(** [done_to_json ~served ~total] is the end-of-session summary record. *)
val done_to_json : served:int -> total:float -> string

(** What a client sees on a server connection, one line at a time. *)
type server_line =
  | Ack of ack
  | Refused of string
  | Decision_line of int  (** a decision record, by request index *)
  | Done of int * float  (** served count, total cost *)

val parse_server_line : string -> (server_line, string) result
