(* The named workloads and the inputs they generate from a seed.

   Each workload is a clustered instance (the shape `omflp gen --family
   clustered --cost x=1` builds) served by PD-OMFLP, plus a session shape.
   Why each exists is recorded next to its name in BENCHMARK.json:
   - churn: many 50-request sessions, so wire parse/encode, session
     open/close and the socket -> Conn queue -> Pool path dominate;
   - heavy: 1000-request sessions without a checkpoint, so the algorithm
     step (whose cost grows with the session's past) dominates;
   - durable: checkpointed 1000-request sessions, so snapshot encode and
     write dominate, and the crash probe exercises resume.

   Every workload also runs a crash probe: checkpointed sessions of
   [probe_len] requests, SIGKILLed after [kill_at] (not a multiple of the
   snapshot cadence) and resumed through the handshake. On durable the
   probe has the main session shape; elsewhere it is a short prefix of
   the workload's streams, so resume is measured on every workload. *)

open Omflp_prelude
open Omflp_instance

type t = {
  name : string;
  sites : int;  (* clusters of 4 sites each *)
  commodities : int;
  session_len : int;
  checkpoint : bool;  (* main sessions checkpointed *)
  round_sessions : int;  (* closed loop: sessions per connection per round *)
  rate_rps : float;  (* open-loop offered rate, both connections together *)
  cpu_chunk : int;  (* open loop: decisions per server-CPU reading *)
  probe_len : int;
  kill_at : int;
  probe_cycles : int;  (* crash/restart cycles, two sessions each *)
  trace_sessions : int;  (* main-shape sessions in the traced replay *)
  trace_resumes : int;  (* sessions crashed and resumed in the replay *)
}

let algo_name = "PD-OMFLP"
let snapshot_every = 16
let window = 8  (* closed loop: requests in flight per connection *)
let connections = 2
let pool_size = 10_000

let all =
  [
    {
      name = "churn";
      sites = 16;
      commodities = 8;
      session_len = 50;
      checkpoint = false;
      round_sessions = 100;
      rate_rps = 4000.0;
      cpu_chunk = 8000;
      probe_len = 50;
      kill_at = 41;
      probe_cycles = 20;
      trace_sessions = 100;
      trace_resumes = 12;
    };
    {
      name = "heavy";
      sites = 16;
      commodities = 8;
      session_len = 1000;
      checkpoint = false;
      round_sessions = 1;
      rate_rps = 2000.0;
      cpu_chunk = 3000;
      probe_len = 640;
      kill_at = 601;
      probe_cycles = 5;
      trace_sessions = 4;
      trace_resumes = 2;
    };
    {
      name = "durable";
      sites = 16;
      commodities = 8;
      session_len = 1000;
      checkpoint = true;
      round_sessions = 1;
      rate_rps = 500.0;
      cpu_chunk = 1000;
      probe_len = 1000;
      kill_at = 601;
      probe_cycles = 5;
      trace_sessions = 4;
      trace_resumes = 4;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The instance is the workload's, not the run's: its geometry sets how
   many facilities PD-OMFLP opens and so the work per request, which
   varied by 25% from one instance seed to the next. Each run's seed
   draws the request streams from it (see [stream]). *)
let instance_seed = 1

let instance w =
  Generators.clustered (Splitmix.of_int instance_seed) ~clusters:(w.sites / 4)
    ~per_cluster:4 ~n_requests:pool_size ~n_commodities:w.commodities
    ~side:100.0 ~spread:2.0
    ~cost:(fun ~n_commodities ~n_sites ->
      Omflp_commodity.Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)

(* A session's stream: a window of the instance's request pool starting
   at an offset drawn from (seed, stream index), so streams differ but
   are fully determined by the seed. *)
let stream (inst : Instance.t) ~seed ~index ~len =
  let pool = inst.Instance.requests in
  let rng = Splitmix.of_int ((seed * 1_000_003) + index) in
  let off = Splitmix.int rng (Array.length pool) in
  Array.init len (fun j -> pool.((off + j) mod Array.length pool))

(* The plain request line of the wire protocol. *)
let request_line (r : Request.t) =
  let b = Buffer.create 48 in
  Buffer.add_string b "{\"site\":";
  Buffer.add_string b (string_of_int r.Request.site);
  Buffer.add_string b ",\"demand\":[";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int c))
    (Omflp_commodity.Cset.elements r.Request.demand);
  Buffer.add_string b "]}";
  Buffer.contents b
