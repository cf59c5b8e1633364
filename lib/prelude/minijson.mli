(** Minimal JSON reader for the bench regression gate.

    The container has no yojson, and the only JSON the tooling must
    *read* is its own BENCH.json / BENCH_BASELINE.json output (schema
    [omflp.bench.v1]) — writers stay hand-rolled in Benchkit. This
    parser accepts standard JSON with ASCII strings; [\u] escapes above
    0x7F decode to ['?']. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val of_string : string -> t

val of_file : string -> t

(** Accessors return [None] on a type or key mismatch. *)

val member : string -> t -> t option

val to_list : t -> t list option

val to_float : t -> float option

(** [to_int j] is [Some n] when [j] is an integral number of magnitude
    below 2^53 (exactly an OCaml [int] and a double alike), [None] for
    anything else, a larger number included. *)
val to_int : t -> int option

val to_string : t -> string option
