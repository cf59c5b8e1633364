(** Versioned fixed-layout segments of algorithm state, and the chains
    they form (codec v3 — Marshal-free).

    Every online algorithm serializes its persisted state through this
    codec with explicit field serializers. One segment is

    {v "omflp.snap3" '\n' tag '\n' kind from count len ~len payload md5 v}

    where [kind] says whether the payload is a whole state ({!Base}) or
    what changed since the segment before it ({!Delta}), [from] and
    [count] are the request counts the segment starts from and covers,
    [len] is the payload length and [~len] its complement, and [md5] is
    the 16-byte MD5 of everything before it — the segment's one
    integrity check. Tags read ["omflp.snap.<algo>.v<n>"].

    A chain is segments back to back: a base, then deltas, each starting
    where the one before it ended. {!decode} verifies every segment's
    header, MD5 and place in the chain before handing the algorithm a
    bounds-checked reader over its payload; hostile bytes can only
    produce a named [Failure], never memory-unsafe unmarshalling. Floats
    travel as their IEEE-754 bits and round-trip bit-exactly; that
    exactness is what lets a restored algorithm produce byte-identical
    decisions.

    Encoding allocates about what it produces: the writer fills chunks
    that are never regrown or copied, fixed-width fields are stored into
    them without boxing, and a segment is one exact-size copy of the
    chunks, MD5 trailer included. *)

(** Accumulates payload bytes during encoding, in a 1 KiB first chunk
    and then fixed 64 KiB chunks, none ever regrown. Only {!base} and
    {!next} create one. *)
type writer

(** Cursor over a verified payload. All [r_*] readers bounds-check and
    raise [Failure] (prefixed "Snapshot_codec") on truncation, hostile
    lengths, or malformed tag bytes. *)
type reader

(** One byte: [n land 0xff]. *)
val w_u8 : writer -> int -> unit

val w_int : writer -> int -> unit
val w_i64 : writer -> int64 -> unit
val w_bool : writer -> bool -> unit

(** Floats are written as [Int64.bits_of_float] — bit-exact round-trip. *)
val w_float : writer -> float -> unit

val w_string : writer -> string -> unit
val w_opt : (writer -> 'a -> unit) -> writer -> 'a option -> unit
val w_list : (writer -> 'a -> unit) -> writer -> 'a list -> unit
val w_array : (writer -> 'a -> unit) -> writer -> 'a array -> unit
val w_float_array : writer -> float array -> unit

(** [w_float_sub w a off len] writes the bytes of
    [w_float_array w (Array.sub a off len)] without making the copy.
    Raises [Invalid_argument] if [off] and [len] do not designate a valid
    slice of [a]. *)
val w_float_sub : writer -> float array -> int -> int -> unit

val w_int_array : writer -> int array -> unit

val r_u8 : reader -> int
val r_int : reader -> int
val r_i64 : reader -> int64
val r_bool : reader -> bool
val r_float : reader -> float
val r_string : reader -> string
val r_opt : (reader -> 'a) -> reader -> 'a option
val r_list : (reader -> 'a) -> reader -> 'a list
val r_array : (reader -> 'a) -> reader -> 'a array
val r_float_array : reader -> float array
val r_int_array : reader -> int array

(** {1 Segments} *)

type kind =
  | Base  (** a whole state: the delta against the empty state *)
  | Delta  (** what changed since the segment before it *)

(** [base ~tag ~count emit] is a base segment holding the payload [emit]
    writes, covering the first [count] requests. Raises
    [Invalid_argument] if [tag] is longer than 255 bytes or contains a
    newline. *)
val base : tag:string -> count:int -> (writer -> unit) -> string

(** Where a state's sequence of segments stands: the request count its
    last segment covered, and how the deltas written since the last base
    compare with it. A fresh stream's first segment is a base. *)
type stream

val stream : unit -> stream

(** [next st ~tag ~count emit] is the stream's next segment, covering
    the first [count] requests. It is a base when nothing was written
    yet or when the deltas since the last base have outgrown it, a delta
    otherwise; [emit kind w] writes the payload of that kind — the whole
    state for [Base], what changed since the previous segment for
    [Delta]. A chain built from a stream therefore stays within about
    twice its state's size, and the bytes written per request stay
    bounded as the state grows. *)
val next :
  stream -> tag:string -> count:int -> (kind -> writer -> unit) -> string

(** [segment_info seg] is the kind and the request counts the segment
    starts from and covers, read from the header of [seg], which must be
    exactly one segment (its MD5 is not checked). Raises
    [Invalid_argument] otherwise. *)
val segment_info : string -> kind * int * int

(** {1 Chains} *)

(** What is wrong with the bytes at some position of a chain. [Torn]:
    they are a proper prefix of a segment (the header is consistent as
    far as it goes, and the segment would end past them) — what a crash
    mid-append leaves. [Bad_header]: anything else wrong with the header
    or the segment's place in the chain (a chain starts with a base and
    each delta starts where the segment before it ended). [Bad_digest]:
    a whole segment whose MD5 does not match. *)
type damage = Torn | Bad_header of string | Bad_digest

(** The result of {!scan}: the first [segments] segments, [valid] bytes
    in all, are whole and intact, and the last of them covers [count]
    requests (0 when there is none); [rest] says what is wrong with the
    bytes after them, [None] when there are none. *)
type scan = {
  segments : int;
  count : int;
  valid : int;
  rest : damage option;
}

(** [scan chain] checks a chain segment by segment without decoding any
    payload. *)
val scan : string -> scan

(** [decode ~tag ?delta read chain] folds [chain]: each base segment's
    payload is [read], each delta segment's is applied with [delta] to
    the state so far; the result is the state the last segment leaves.
    Each payload must be consumed exactly. Without [delta], a delta
    segment is refused. Raises [Failure] with a message naming [tag] on
    a truncated or damaged chain, and also naming what was found on a
    chain of another tag or a retired v2 blob. *)
val decode :
  tag:string -> ?delta:('a -> reader -> unit) -> (reader -> 'a) -> string -> 'a
