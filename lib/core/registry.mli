(** Name-indexed registry of the online algorithms, the one place (with
    {!Omflp_instance.Problem_env}) that knows about problem families. *)

(** [all ()] lists the paper's canonical (name, algorithm) pairs:
    PD-OMFLP, RAND-OMFLP, INDEP, ALL-LARGE, GREEDY. *)
val all : unit -> (string * (module Algo_intf.ALGO)) list

(** [extended ()] additionally contains the extensions: HEAVY-AWARE
    (Section 5), the per-commodity OFL adapters MEYERSON-OFL / FOTAKIS-OFL
    ({!Ofl_adapter}), and the other problem families' algorithms
    NONMETRIC-BF and LEASE-PD. *)
val extended : unit -> (string * (module Algo_intf.ALGO)) list

(** [family_of a] is the packed algorithm's declared family. *)
val family_of : (module Algo_intf.ALGO) -> Omflp_instance.Problem_env.Family.t

(** [of_family fam] restricts {!extended} to algorithms declaring [fam]. *)
val of_family :
  Omflp_instance.Problem_env.Family.t ->
  (string * (module Algo_intf.ALGO)) list

(** [canonical_for fam] is the default algorithm set for "run everything"
    entry points: {!all} for OMFLP, {!of_family} otherwise. *)
val canonical_for :
  Omflp_instance.Problem_env.Family.t ->
  (string * (module Algo_intf.ALGO)) list

(** [find name] resolves case-insensitively over {!extended}; the error
    carries the requested name and the available names. *)
val find :
  string ->
  ((module Algo_intf.ALGO), [ `Unknown_algo of string * string list ]) result

(** [unknown_algo_message err] renders {!find}'s error the way every CLI
    surface reports it: ["unknown algorithm %S (available: ...)"]. *)
val unknown_algo_message : [ `Unknown_algo of string * string list ] -> string

val names : unit -> string list
