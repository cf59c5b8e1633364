(** Mutable bookkeeping shared by every online algorithm: the set of open
    facilities, nearest-facility distance tables, cost accounting, and
    the request clock ({!n_requests}).

    Distance tables are maintained per commodity and for large facilities
    ([F(e)] and [F̂] of the paper) by an incremental {!Nearest_index}, so
    algorithms query nearest facilities in O(1) and pay O(|σ| · |M|) once
    per opening. *)

type t

(** [create env ~n_commodities] starts with no facilities; connection
    costs are accounted family-aware via the environment. The nearest
    index always runs on the environment's metric (non-metric algorithms
    scan their connection matrix themselves). *)
val create : Omflp_instance.Problem_env.t -> n_commodities:int -> t

val metric : t -> Omflp_metric.Finite_metric.t

(** [index t] is the store's nearest-open-facility index. Hot loops may
    read its rows directly; all updates go through {!open_facility}. *)
val index : t -> Nearest_index.t

(** [n_requests t] is the number of requests served: the services
    {!record_service} has stored. It is the run's one request clock.
    Every algorithm records a request's service after the openings that
    serve it, so while a request is being served the count is its
    index. *)
val n_requests : t -> int

(** [open_facility t ~site ~kind ~cost] registers a facility, pays its
    construction cost, updates the distance tables, and returns the
    record. The facility's [opened_at] is {!n_requests}: the index of the
    request being served. *)
val open_facility :
  t -> site:int -> kind:Facility.kind -> cost:float -> Facility.t

(** [facilities t] lists open facilities in opening order. *)
val facilities : t -> Facility.t list

(** [fold_facilities f init t] folds [f] over the open facilities in
    opening order, like [List.fold_left f init (facilities t)] without
    building the list. *)
val fold_facilities : ('a -> Facility.t -> 'a) -> 'a -> t -> 'a

val n_facilities : t -> int

(** [facility t id] fetches by id. Raises [Not_found]. *)
val facility : t -> int -> Facility.t

(** [dist_offering t ~commodity ~from] is [d(F(e), ·)]: the distance from
    site [from] to the nearest open facility offering [commodity]
    ([infinity] if none). *)
val dist_offering : t -> commodity:int -> from:int -> float

(** [nearest_offering t ~commodity ~from] also returns the facility. *)
val nearest_offering : t -> commodity:int -> from:int -> (Facility.t * float) option

(** [dist_large t ~from] is [d(F̂, ·)], distance to the nearest facility
    offering all of [S] ([infinity] if none). *)
val dist_large : t -> from:int -> float

(** [nearest_large t ~from]. *)
val nearest_large : t -> from:int -> (Facility.t * float) option

(** [record_service t ~request_site service] accounts the connection cost
    (per distinct facility) and stores the service. *)
val record_service : t -> request_site:int -> Service.t -> unit

val services : t -> Service.t list
(** in request order *)

val construction_cost : t -> float
val assignment_cost : t -> float
val total_cost : t -> float

(** {1 Persistence}

    A store's durable state, for algorithm snapshots. The distance tables
    are {e not} serialized: {!read} replays the opening sequence through
    {!Nearest_index.note_opened}, which — being a deterministic fold of
    min-updates over metric rows — rebuilds them bit-identically, while
    the cost accumulators are restored to their serialized values
    instead of being re-summed. A delta ({!write_new}) holds only the
    facilities and services added since the store's mark, so its size
    does not grow with the run. *)

(** [write w t] serializes the whole store — the commodity count, then
    the facilities (in opening order), the services (in request order)
    and the cost accumulators — with the snapshot codec's field writers,
    straight from the store. It does not move the mark. *)
val write : Omflp_prelude.Snapshot_codec.writer -> t -> unit

(** [write_new w t] writes what {!write} does after the commodity
    count, but only the facilities and services added since the last
    {!mark} (since creation when there was none). *)
val write_new : Omflp_prelude.Snapshot_codec.writer -> t -> unit

(** [mark t] makes the next {!write_new} start after the facilities and
    services the store holds now. *)
val mark : t -> unit

(** [read env r] is the mirror of {!write}: it creates a store on [env]
    and applies {!read_new}. Its mark is at the empty store. An
    algorithm's [restore] checks the environment's family (its [create])
    before calling this, so a foreign-family blob is refused by name
    rather than by a codec error. *)
val read :
  Omflp_instance.Problem_env.t -> Omflp_prelude.Snapshot_codec.reader -> t

(** [read_new t r] is the mirror of {!write_new}: it replays each new
    facility's opening as it reads it, appends the new services, and
    restores both cost accumulators verbatim. Raises [Failure] on
    malformed bytes or when the facility ids do not continue the store's
    sequential ids. *)
val read_new : t -> Omflp_prelude.Snapshot_codec.reader -> unit

(** {1 Base segments}

    The snapshot shell of the algorithms that write only bases. *)

(** [base ~tag t emit] is a base segment covering the [n_requests t]
    requests [t] has served: the payload [emit] writes, then that count,
    which repeats the header's and stays only so the bytes stay. *)
val base :
  tag:string -> t -> (Omflp_prelude.Snapshot_codec.writer -> unit) -> string

(** [decode_base ~tag ~store read chain] is the mirror of {!base}: it
    decodes the payload with [read], then refuses, with a [Failure]
    naming [tag], a trailing count other than [n_requests (store state)]
    of the state [read] returned. *)
val decode_base :
  tag:string ->
  store:('a -> t) ->
  (Omflp_prelude.Snapshot_codec.reader -> 'a) ->
  string ->
  'a
