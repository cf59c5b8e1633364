(** Common interface of online facility-location algorithms.

    Algorithms receive the problem environment up front (metric, cost
    function, and family-specific data — all public knowledge in the
    model) and the requests one by one — they never see the request
    sequence. Each algorithm declares the problem {!Problem_env.Family.t}
    it serves; [create] and [restore] refuse environments of any other
    family with a named [Failure] (see
    {!Omflp_instance.Problem_env.mismatch_message}), so dispatch layers
    (registry, oracle, serve, bench) can rely on capability checks
    instead of family-specific branching. *)

module Problem_env = Omflp_instance.Problem_env

module type ALGO = sig
  type t

  val name : string

  (** The problem family this algorithm serves. *)
  val family : Problem_env.Family.t

  (** [create ?seed env] starts a run; [seed] only matters for randomized
      algorithms. Raises [Failure] on a family mismatch. *)
  val create : ?seed:int -> Problem_env.t -> t

  (** [step t request] irrevocably serves the request (opening facilities
      as needed) and returns the service decision. *)
  val step : t -> Omflp_instance.Request.t -> Service.t

  (** [run_so_far t] snapshots facilities, services, and costs. *)
  val run_so_far : t -> Run.t

  (** [store t] is the algorithm's facility store — the shared mutable
      bookkeeping every algorithm maintains. Serving layers read running
      costs and newly opened facilities off it in O(1) per request
      instead of materializing a full {!Run.t}. *)
  val store : t -> Facility_store.t

  (** [snapshot t] serializes the algorithm's complete mutable state
      (store, per-algorithm scratch that is not a pure function of the
      inputs, and any RNG position) as an opaque versioned blob.

      [restore env blob] revives that state against the same environment.
      The contract is {e byte-identical continuation}: for any request
      sequence, interleaving [snapshot]/[restore] at any point yields
      exactly the decisions, facility ids, and cost floats of the
      uninterrupted run. [restore] raises [Failure] (never a decode crash
      on the envelope) when the blob belongs to another algorithm or
      format version, or when [env]'s family doesn't match the declared
      one; blobs are trusted beyond the envelope tag, so integrity-check
      bytes of unknown provenance before calling it. *)
  val snapshot : t -> string

  val restore : Problem_env.t -> string -> t
end

type packed = (module ALGO)
