open Omflp_metric
module Sc = Omflp_prelude.Snapshot_codec

type run = {
  facilities : int list;
  construction_cost : float;
  assignment_cost : float;
}

let total_cost run = run.construction_cost +. run.assignment_cost

type served = {
  metric : Finite_metric.t;
  opening_costs : float array;
  dist : float array;
  mutable sites : int list;
  mutable construction : float;
  mutable assignment : float;
}

let served ~who metric ~opening_costs =
  let n = Finite_metric.size metric in
  if Array.length opening_costs <> n then
    invalid_arg (who ^ ".create: opening_costs arity mismatch");
  if Array.exists (fun c -> c < 0.0) opening_costs then
    invalid_arg (who ^ ".create: negative cost");
  let dist = Array.make n infinity in
  { metric; opening_costs; dist; sites = []; construction = 0.; assignment = 0. }

let open_site s m =
  s.sites <- m :: s.sites;
  s.construction <- s.construction +. s.opening_costs.(m);
  for p = 0 to Array.length s.dist - 1 do
    let d = Finite_metric.dist s.metric p m in
    if d < s.dist.(p) then s.dist.(p) <- d
  done

let run s =
  {
    facilities = List.rev s.sites;
    construction_cost = s.construction;
    assignment_cost = s.assignment;
  }

let write_served b s =
  Sc.w_list Sc.w_int b s.sites;
  Sc.w_float_array b s.dist;
  Sc.w_float b s.construction;
  Sc.w_float b s.assignment

let read_served ~who metric ~opening_costs r =
  let sites = Sc.r_list Sc.r_int r in
  let dist = Sc.r_float_array r in
  let construction = Sc.r_float r in
  let assignment = Sc.r_float r in
  if Array.length dist <> Finite_metric.size metric then
    failwith (who ^ ".read_state: state from a different metric");
  let s = served ~who metric ~opening_costs in
  { s with dist; sites; construction; assignment }

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
