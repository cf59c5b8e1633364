open Omflp_prelude
open Omflp_commodity
open Omflp_instance
open Omflp_core
open Omflp_obs

type violation = { check : string; algo : string; detail : string }

let m_instances = Metrics.counter "check.instances"

let m_checks = Metrics.counter "check.checks"

let m_violations = Metrics.counter "check.violations"

let default_algos () = Registry.extended ()

let tol = 1e-6

let run_digest (run : Run.t) =
  let b = Buffer.create 256 in
  Buffer.add_string b run.algorithm;
  Printf.bprintf b "|cost=%.17g+%.17g" run.construction_cost
    run.assignment_cost;
  List.iter
    (fun (f : Facility.t) ->
      Printf.bprintf b "|f%d@%d[%s]t%d$%.17g" f.id f.site
        (String.concat "," (List.map string_of_int (Cset.elements f.offered)))
        f.opened_at f.cost)
    run.facilities;
  List.iter
    (fun (s : Service.t) ->
      match s with
      | Service.To_single id -> Printf.bprintf b "|S%d" id
      | Service.Per_commodity l ->
          Buffer.add_string b "|P";
          List.iter (fun (e, id) -> Printf.bprintf b " %d>%d" e id) l)
    run.services;
  Buffer.contents b

let check_instance ?algos ?(seed = 0) (inst : Instance.t) =
  Metrics.incr m_instances;
  let fam = Instance.family inst in
  let env = Instance.env inst in
  let out = ref [] in
  let violation check algo fmt =
    Printf.ksprintf
      (fun detail ->
        Metrics.incr m_violations;
        out := { check; algo; detail } :: !out)
      fmt
  in
  let checked () = Metrics.incr m_checks in
  (* Family dispatch: the default pool is every registered algorithm of
     the instance's family; an explicitly requested algorithm of another
     family is a named finding, never a mid-run crash. *)
  let algos =
    match algos with
    | None -> Registry.of_family fam
    | Some l ->
        List.filter
          (fun (name, algo) ->
            let (module A : Algo_intf.ALGO) = algo in
            A.family = fam
            ||
            (violation "family-mismatch" name "%s"
               (Problem_env.mismatch_message ~algo:name ~declared:A.family
                  ~got:fam);
             false))
          l
  in
  (* Every algorithm run is guarded: a raise is itself a reportable
     (and shrinkable) finding, not an oracle crash. *)
  let safe_run name algo =
    match Simulator.run ~seed ~check:false algo inst with
    | run -> Some run
    | exception e ->
        violation "run" name "raised %s" (Printexc.to_string e);
        None
  in
  let bracket =
    match Omflp_offline.Opt_estimate.bracket inst with
    | b -> Some b
    | exception e ->
        violation "run" "(offline)" "bracket raised %s" (Printexc.to_string e);
        None
  in
  (match bracket with
  | Some b ->
      checked ();
      if not (Numerics.approx_le ~tol b.lower b.upper) then
        violation "bracket-order" "(offline)"
          "lower %.9g (%s) exceeds upper %.9g (%s)" b.lower b.lower_method
          b.upper b.upper_method
  | None -> ());
  List.iter
    (fun (name, algo) ->
      match safe_run name algo with
      | None -> ()
      | Some run ->
          checked ();
          (match Simulator.validate inst run with
          | Ok () -> ()
          | Error e -> violation "feasible" name "%s" e);
          checked ();
          (match safe_run name algo with
          | Some run2 when run_digest run <> run_digest run2 ->
              violation "deterministic" name
                "two runs with seed %d produced different outcomes" seed
          | _ -> ());
          (match bracket with
          | Some b when b.lower > 0.0 ->
              checked ();
              let c = Run.total_cost run in
              if not (Numerics.approx_le ~tol b.lower c) then
                violation "opt-lower" name
                  "online cost %.9g beats the certified lower bound %.9g (%s)"
                  c b.lower b.lower_method
          | _ -> ());
          (* Byte-identical continuation: snapshot at the midpoint,
             restore from the blob, finish the run — the serving layer's
             crash/resume path in miniature. Any drift (decisions,
             facility ids, cost floats) is a violation. *)
          checked ();
          let (module A : Algo_intf.ALGO) = algo in
          let cut = Instance.n_requests inst / 2 in
          (match
             let t = A.create ~seed env in
             Array.iteri
               (fun i r -> if i < cut then ignore (A.step t r))
               inst.Instance.requests;
             let blob = A.snapshot t in
             let t' = A.restore env blob in
             Array.iteri
               (fun i r -> if i >= cut then ignore (A.step t' r))
               inst.Instance.requests;
             A.run_so_far t'
           with
          | resumed ->
              if run_digest resumed <> run_digest run then
                violation "resume" name
                  "snapshot/restore at request %d diverges from the \
                   uninterrupted run"
                  cut
          | exception e ->
              violation "resume" name "snapshot/restore at request %d raised %s"
                cut (Printexc.to_string e)))
    algos;
  (* PD-OMFLP theory checks: replay the deterministic primal-dual run and
     test the paper's inequalities on its duals, and its maintained bid
     caches against a from-scratch summation. The paper's analysis is for
     the metric OMFLP family only, so the dual replay is gated on it. *)
  if fam = Problem_env.Family.Omflp then begin
  (try
     let t = Pd_omflp.create ~seed env in
     Array.iter (fun r -> ignore (Pd_omflp.step t r)) inst.Instance.requests;
     checked ();
     let drift = Pd_omflp.cache_drift t in
     let scale = Float.max 1.0 (Pd_omflp.dual_objective t) in
     if not (drift <= tol *. scale) then
       violation "bid-cache" Pd_omflp.name
         "maintained bid caches drift %.3g from a fresh summation (bound \
          %.3g)"
         drift (tol *. scale);
     checked ();
     (match Dual_checker.corollary8 t with
     | Ok () -> ()
     | Error e -> violation "corollary8" Pd_omflp.name "%s" e);
     checked ();
     (match
        Dual_checker.scaled_dual_feasible inst.Instance.metric
          inst.Instance.cost (Pd_omflp.dual_records t)
      with
     | Ok () -> ()
     | Error (m, sigma) ->
         violation "corollary17" Pd_omflp.name
           "scaled duals infeasible at site %d, sigma %s" m
           (Format.asprintf "%a" Cset.pp sigma));
     let gamma =
       Dual_checker.gamma
         ~n_commodities:(Instance.n_commodities inst)
         ~n_requests:(Instance.n_requests inst)
     in
     let dual_lb = Dual_checker.dual_lower_bound t in
     let cost = Run.total_cost (Pd_omflp.run_so_far t) in
     checked ();
     if dual_lb > 0.0 && not (Numerics.approx_le ~tol cost (3.0 /. gamma *. dual_lb))
     then
       violation "theorem4" Pd_omflp.name
         "cost %.9g exceeds (3/gamma) x dual lower bound = %.9g (gamma %.6g)"
         cost
         (3.0 /. gamma *. dual_lb)
         gamma;
     (match bracket with
     | Some b ->
         checked ();
         if not (Numerics.approx_le ~tol dual_lb b.upper) then
           violation "weak-duality" Pd_omflp.name
             "dual lower bound %.9g exceeds the feasible offline cost %.9g (%s)"
             dual_lb b.upper b.upper_method
     | None -> ())
   with e ->
     violation "run" Pd_omflp.name "dual replay raised %s"
       (Printexc.to_string e))
  end;
  List.rev !out
