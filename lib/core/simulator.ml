open Omflp_instance
open Omflp_obs

(* Per-request service latency, recorded only while observation is on
   (metrics enabled or a trace sink installed) so unobserved runs keep
   the bare [A.step] call in the loop. *)
let m_requests = Metrics.counter "sim.requests"

let m_step_timer = Metrics.timer "sim.step"

let m_step_hist = Metrics.histogram "sim.step_seconds"

let validate (inst : Instance.t) (run : Run.t) =
  let env = Instance.env inst in
  let facility_tbl = Hashtbl.create 64 in
  List.iter
    (fun (f : Facility.t) -> Hashtbl.replace facility_tbl f.id f)
    run.facilities;
  let facility id =
    match Hashtbl.find_opt facility_tbl id with
    | Some f -> f
    | None -> failwith (Printf.sprintf "unknown facility id %d" id)
  in
  (* Construction costs must match an opening the environment allows;
     for leasing this also recovers each facility's lease duration (its
     liveness window). *)
  let duration_of (f : Facility.t) =
    match
      Problem_env.classify_facility_cost env ~site:f.site ~offered:f.offered
        ~cost:f.cost
    with
    | Ok d -> d
    | Error msg -> failwith (Printf.sprintf "facility %d %s" f.id msg)
  in
  let n_req = Instance.n_requests inst in
  let services = Array.of_list run.services in
  try
    if Array.length services <> n_req then
      failwith
        (Printf.sprintf "expected %d services, got %d" n_req
           (Array.length services));
    (* Coverage, respecting opening times: a facility used by request i
       must have been opened at or before i — and, under leasing, not
       have expired before i. *)
    Array.iteri
      (fun i service ->
        let r = inst.requests.(i) in
        List.iter
          (fun id ->
            let f = facility id in
            if f.Facility.opened_at > i then
              failwith
                (Printf.sprintf
                   "request %d served by facility %d opened later (at %d)" i id
                   f.Facility.opened_at);
            match duration_of f with
            | None -> ()
            | Some d ->
                if i >= f.Facility.opened_at + d then
                  failwith
                    (Printf.sprintf
                       "request %d served by facility %d whose lease (opened \
                        %d, duration %d) had expired"
                       i id f.Facility.opened_at d))
          (Service.facility_ids service);
        if
          not
            (Service.covers
               ~facility_offered:(fun id -> (facility id).Facility.offered)
               ~demand:r.Request.demand service)
        then failwith (Printf.sprintf "request %d not fully served" i))
      services;
    (* Cost recomputation. *)
    let construction =
      List.fold_left (fun acc (f : Facility.t) -> acc +. f.cost) 0.0
        run.facilities
    in
    let assignment = ref 0.0 in
    Array.iteri
      (fun i service ->
        assignment :=
          !assignment
          +. Service.cost_env
               ~facility_site:(fun id -> (facility id).Facility.site)
               ~env
               ~request_site:inst.requests.(i).Request.site service)
      services;
    let open Omflp_prelude.Numerics in
    if not (approx_eq ~tol:1e-6 construction run.construction_cost) then
      failwith
        (Printf.sprintf "construction cost mismatch: %.9g vs reported %.9g"
           construction run.construction_cost);
    if not (approx_eq ~tol:1e-6 !assignment run.assignment_cost) then
      failwith
        (Printf.sprintf "assignment cost mismatch: %.9g vs reported %.9g"
           !assignment run.assignment_cost);
    (* Facility construction costs must match the cost function (checked
       family-aware by [duration_of] above for used facilities; re-run
       over all facilities so unused openings are checked too). *)
    List.iter (fun (f : Facility.t) -> ignore (duration_of f)) run.facilities;
    Ok ()
  with Failure msg -> Error (run.algorithm ^ ": " ^ msg)

let run ?seed ?(check = true) (module A : Algo_intf.ALGO)
    (inst : Instance.t) =
  let t = A.create ?seed (Instance.env inst) in
  let observing = Metrics.enabled () || Trace_sink.installed () in
  let result =
    if not observing then begin
      Array.iter (fun r -> ignore (A.step t r)) inst.requests;
      A.run_so_far t
    end
    else begin
      let latencies = Array.make (Array.length inst.requests) 0.0 in
      Array.iteri
        (fun i r ->
          let t0 = Metrics.now () in
          let service = A.step t r in
          let dt = Metrics.now () -. t0 in
          latencies.(i) <- dt;
          Metrics.incr m_requests;
          Metrics.record_span m_step_timer dt;
          Metrics.observe m_step_hist dt;
          Trace_sink.emit_current ~kind:"request"
            [
              ("algorithm", Trace_sink.String A.name);
              ("index", Trace_sink.Int i);
              ("site", Trace_sink.Int r.Request.site);
              ( "demand",
                Trace_sink.Int (Omflp_commodity.Cset.cardinal r.Request.demand)
              );
              ( "service",
                Trace_sink.String
                  (match service with
                  | Service.To_single _ -> "single"
                  | Service.Per_commodity _ -> "per_commodity") );
              ( "facilities",
                Trace_sink.Int (List.length (Service.facility_ids service)) );
              ("latency_s", Trace_sink.Float dt);
            ])
        inst.requests;
      { (A.run_so_far t) with Run.step_seconds = latencies }
    end
  in
  if check then begin
    match validate inst result with
    | Ok () -> ()
    | Error msg -> failwith ("Simulator.run: invalid run: " ^ msg)
  end;
  result

let run_many ?seed ?(check = true) algos (inst : Instance.t) =
  (* All algorithms share the instance's metric, so the distance rows of
     the request sites — the rows every step loop reads — are forced
     once here and served from cache for the whole table, instead of
     each run paying the first-touch materialization. *)
  Array.iter
    (fun (r : Request.t) ->
      ignore (Omflp_metric.Finite_metric.row inst.metric r.site))
    inst.requests;
  List.map (fun (name, algo) -> (name, run ?seed ~check algo inst)) algos

let run_all ?seed inst =
  run_many ?seed (Registry.canonical_for (Instance.family inst)) inst
