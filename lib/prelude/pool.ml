(* A from-scratch fixed-size domain pool: one shared FIFO of thunks
   guarded by a mutex/condition pair, [jobs - 1] worker domains spawned
   once at [create], and a caller that helps drain the queue during
   [map] so all [jobs] domains execute tasks. Determinism comes for free
   from indexing: task [i] writes only slot [i] of the result array, so
   scheduling order can never reorder results. *)

type t = {
  pool_jobs : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  pending : (unit -> unit) Queue.t;
  mutable closing : bool;
  mutable workers : unit Domain.t array;
}

(* True while the current domain is executing a pool task (set around
   the task body, not per domain, so a caller helping drain the queue is
   covered too). Nested [map]s see it and fall back to inline
   execution: workers never block on other workers, so the pool cannot
   deadlock. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.pending && not t.closing do
    Condition.wait t.work_available t.mutex
  done;
  match Queue.take_opt t.pending with
  | None ->
      (* Empty and closing: drain complete, exit. *)
      Mutex.unlock t.mutex
  | Some task ->
      Mutex.unlock t.mutex;
      task ();
      worker_loop t

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      pool_jobs = jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      pending = Queue.create ();
      closing = false;
      workers = [||];
    }
  in
  t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let jobs t = t.pool_jobs

let map t f arr =
  let n = Array.length arr in
  if t.pool_jobs = 1 || n <= 1 || Domain.DLS.get in_task then Array.map f arr
  else begin
    Mutex.lock t.mutex;
    if t.closing then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.map: pool is shut down"
    end;
    let results = Array.make n None in
    let remaining = ref n in
    let all_done = Condition.create () in
    let task i () =
      (* Never raises: slot [i] stores the result or the exception. *)
      Domain.DLS.set in_task true;
      results.(i) <-
        Some
          (try Ok (f arr.(i))
           with e -> Error (e, Printexc.get_raw_backtrace ()));
      Domain.DLS.set in_task false;
      Mutex.lock t.mutex;
      decr remaining;
      if !remaining = 0 then Condition.broadcast all_done;
      Mutex.unlock t.mutex
    in
    for i = 0 to n - 1 do
      Queue.push (task i) t.pending
    done;
    Condition.broadcast t.work_available;
    Mutex.unlock t.mutex;
    (* Help drain the queue, then wait for in-flight tasks to settle. *)
    let rec help () =
      Mutex.lock t.mutex;
      if !remaining = 0 then Mutex.unlock t.mutex
      else
        match Queue.take_opt t.pending with
        | Some task ->
            Mutex.unlock t.mutex;
            task ();
            help ()
        | None ->
            while !remaining > 0 do
              Condition.wait all_done t.mutex
            done;
            Mutex.unlock t.mutex
    in
    help ();
    (* Lowest-index failure wins: deterministic error propagation. *)
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | _ -> ())
      results;
    Array.map
      (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
      results
  end

let shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.closing <- true;
  t.workers <- [||];
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  Array.iter Domain.join workers

(* ---------- process-default pool ---------- *)

let default_pool : t option ref = ref None

let default_jobs_setting = ref 1

let set_default_jobs n =
  if n < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  (match !default_pool with Some p -> shutdown p | None -> ());
  default_pool := None;
  default_jobs_setting := n

let default_jobs () = !default_jobs_setting

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
      let p = create ~jobs:!default_jobs_setting in
      default_pool := Some p;
      p
