(** Shared interface of single-commodity Online Facility Location
    algorithms.

    Requests are site indices arriving online; every site is also a
    potential facility location with an individual opening cost. *)

type run = {
  facilities : int list;  (** opened sites, in opening order *)
  construction_cost : float;
  assignment_cost : float;
}

val total_cost : run -> float

(** {1 The served set, which both algorithms keep} *)

type served = {
  metric : Omflp_metric.Finite_metric.t;
  opening_costs : float array;
  dist : float array;  (** [dist.(p) = d(p, F)]; only {!open_site} writes it *)
  mutable sites : int list;  (** opened sites, newest first *)
  mutable construction : float;
  mutable assignment : float;  (** the algorithm adds each assignment *)
}

(** [served ~who metric ~opening_costs] is the empty set; raises
    [Invalid_argument "<who>.create: ..."] on an arity mismatch or a
    negative cost. *)
val served :
  who:string -> Omflp_metric.Finite_metric.t -> opening_costs:float array ->
  served

(** [open_site s m] pays for a facility at [m] and lowers [dist]. *)
val open_site : served -> int -> unit

val run : served -> run

(** [write_served] writes the sites, [dist] and both costs, the tail of
    each algorithm's state; [read_served ~who] reads them back and
    raises [Failure "<who>.read_state: ..."] on a foreign metric. *)
val write_served : Omflp_prelude.Snapshot_codec.writer -> served -> unit

val read_served :
  who:string ->
  Omflp_metric.Finite_metric.t ->
  opening_costs:float array ->
  Omflp_prelude.Snapshot_codec.reader ->
  served

module type ALGORITHM = sig
  type t

  (** [create metric ~opening_costs] starts a fresh run;
      [opening_costs.(m)] is the facility cost at site [m]. Raises
      [Invalid_argument] on arity mismatch or a negative cost. *)
  val create : Omflp_metric.Finite_metric.t -> opening_costs:float array -> t

  (** [step t site] serves the next request, possibly opening facilities;
      returns the request's assignment distance. *)
  val step : t -> int -> float

  val snapshot : t -> run

  (** [write_state w t] writes the algorithm's complete mutable state
      (including any RNG position) into the payload of the snapshot
      segment being encoded; [read_state] reads it back against the same
      metric and opening costs, such that the revived run takes
      byte-identical decisions on every future request. The enclosing
      segment's tag names the algorithm; [read_state] raises [Failure]
      on malformed bytes or a state from another metric. *)
  val write_state : Omflp_prelude.Snapshot_codec.writer -> t -> unit

  val read_state :
    Omflp_metric.Finite_metric.t ->
    opening_costs:float array ->
    Omflp_prelude.Snapshot_codec.reader ->
    t
end
