type run = {
  facilities : int list;
  construction_cost : float;
  assignment_cost : float;
}

let total_cost run = run.construction_cost +. run.assignment_cost

module type ALGORITHM = sig
  type t

  val create : Omflp_metric.Finite_metric.t -> opening_costs:float array -> t
  val step : t -> int -> float
  val snapshot : t -> run
  val write_state : Omflp_prelude.Snapshot_codec.writer -> t -> unit

  val read_state :
    Omflp_metric.Finite_metric.t ->
    opening_costs:float array ->
    Omflp_prelude.Snapshot_codec.reader ->
    t
end
