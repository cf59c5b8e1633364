(** Experiment suite entry point: one spec-driven runner for every
    experiment. *)

(** [run_spec spec] dispatches on [spec.id] ("e1" … "e6", "e8" … "e11";
    "e7" is the Bechamel half of [omflp bench]) and runs the
    experiment with the spec's overrides. Raises [Invalid_argument] on
    an unknown id. *)
val run_spec : Exp_common.Spec.t -> Exp_common.section

(** [run ~quick ~which] builds a {!Exp_common.Spec} per requested id
    ([which] is an id or "all") and executes it via {!run_spec}.

    With ["all"], experiments are dispatched across [pool] (default:
    {!Omflp_prelude.Pool.default}); the returned sections are always in
    {!ids} order and byte-identical for any pool size. *)
val run :
  ?pool:Omflp_prelude.Pool.t ->
  quick:bool ->
  which:string ->
  unit ->
  Exp_common.section list

val ids : string list
