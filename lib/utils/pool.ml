(** A reusable Domain-based worker pool for data-parallel execution.

    [create n] spawns [n - 1] worker domains once; the caller's domain is
    worker 0 and participates in every job, so a pool of size [n] uses [n]
    domains total and [create 1] degenerates to inline sequential execution
    with no domains spawned.  Jobs are dynamic self-scheduling maps over an
    array: workers repeatedly claim chunks of indices from a shared atomic
    cursor, so uneven per-element cost load-balances automatically.  Results
    are written by input index, making the output array independent of which
    worker computed which element.

    Exceptions raised by the mapped function are captured (first one wins),
    the remaining elements are abandoned, and the exception is re-raised on
    the caller's domain once every worker has quiesced.

    Jobs accept an optional {!Cancel.t} token: workers poll it between
    chunks, stop claiming new work once it fires, and — if any element was
    left unprocessed — {!Cancel.Cancelled} is raised on the caller's domain
    after every worker has quiesced.  No domain is ever left running: both
    the error and the cancellation path drain the pool before returning, so
    the pool stays reusable afterwards.

    The pool is {e not} reentrant: calling [parallel_map] from inside a
    mapped function on the same pool deadlocks.  One job runs at a time;
    concurrent submissions from several domains are serialized by an
    internal submission lock. *)

type t = {
  size : int;  (** total workers, including the calling domain *)
  mutex : Mutex.t;
  work_available : Condition.t;
  work_done : Condition.t;
  submit : Mutex.t;  (** serializes whole jobs, not individual chunks *)
  mutable job : (int -> unit) option;  (** worker slot -> runs until drained *)
  mutable generation : int;
  mutable pending : int;  (** workers still inside the current job *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

(** What the hardware offers; the natural default for [create]. *)
let default_jobs () = Domain.recommended_domain_count ()

(* Each spawned domain runs [worker_slot_loop slot]; slot 0 is the caller's
   domain, spawned domains use slots 1 .. size-1.  The slot only identifies
   the worker for per-worker state init — it must not influence results
   (determinism contract).  Job closures handle their own errors; see
   [parallel_map_init]. *)
let rec worker_slot_loop t slot last_gen =
  Mutex.lock t.mutex;
  while (not t.stop) && t.generation = last_gen do
    Condition.wait t.work_available t.mutex
  done;
  if t.stop then Mutex.unlock t.mutex
  else begin
    let gen = t.generation in
    let job = match t.job with Some j -> j | None -> fun _ -> () in
    Mutex.unlock t.mutex;
    (try job slot with _ -> ());
    Mutex.lock t.mutex;
    t.pending <- t.pending - 1;
    if t.pending = 0 then Condition.broadcast t.work_done;
    Mutex.unlock t.mutex;
    worker_slot_loop t slot gen
  end

let create n =
  if n < 1 then invalid_arg "Pool.create: size must be >= 1";
  let t =
    {
      size = n;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      work_done = Condition.create ();
      submit = Mutex.create ();
      job = None;
      generation = 0;
      pending = 0;
      stop = false;
      domains = [];
    }
  in
  (* Spawn one at a time so a failure partway (domain limit, OOM) can stop
     and join the domains already running instead of leaking them. *)
  (try
     for i = 1 to n - 1 do
       t.domains <- Domain.spawn (fun () -> worker_slot_loop t i 0) :: t.domains
     done
   with e ->
     Mutex.lock t.mutex;
     t.stop <- true;
     Condition.broadcast t.work_available;
     Mutex.unlock t.mutex;
     List.iter Domain.join t.domains;
     t.domains <- [];
     raise e);
  t

(** Stop the workers and join their domains.  Idempotent; the pool must not
    be used afterwards. *)
let shutdown t =
  Mutex.lock t.submit;
  Mutex.lock t.mutex;
  let domains = t.domains in
  t.domains <- [];
  if not t.stop then begin
    t.stop <- true;
    Condition.broadcast t.work_available
  end;
  Mutex.unlock t.mutex;
  Mutex.unlock t.submit;
  List.iter Domain.join domains

(** [with_pool n f] runs [f] over a fresh pool and guarantees every spawned
    domain is stopped and joined on {e all} exits: normal return, a mapped
    function's exception re-raised by a job, or an exception raised directly
    by [f]'s own body between jobs.  Combined with [create]'s partial-spawn
    cleanup, no code path leaks a domain. *)
let with_pool n f =
  let t = create n in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Publish [job], run our own share on the calling domain, wait for the
   spawned workers to drain theirs. *)
let run_job t (job : int -> unit) =
  Mutex.lock t.submit;
  Mutex.lock t.mutex;
  if t.stop then begin
    Mutex.unlock t.mutex;
    Mutex.unlock t.submit;
    invalid_arg "Pool: used after shutdown"
  end;
  t.job <- Some job;
  t.generation <- t.generation + 1;
  t.pending <- t.size;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  (try job 0 with _ -> ());
  Mutex.lock t.mutex;
  t.pending <- t.pending - 1;
  while t.pending > 0 do
    Condition.wait t.work_done t.mutex
  done;
  t.job <- None;
  Mutex.unlock t.mutex;
  Mutex.unlock t.submit

(** [parallel_map_init t ~init ~f arr] maps [f state i arr.(i)] over [arr],
    where each participating worker first builds its private [state] with
    [init slot] ([slot] ∈ [0, size)).  Results are positionally ordered;
    for a deterministic result [f] must not depend on [slot] or on the
    chunk schedule.  [chunk] elements are claimed at a time (default 1:
    full dynamic balancing, right for coarse per-element work).  When
    [cancel] fires before every element was processed, the unfinished job
    raises {!Cancel.Cancelled} after the workers quiesce. *)
let parallel_map_init (type s) t ?(chunk = 1) ?cancel ~(init : int -> s)
    ~(f : s -> int -> 'a -> 'b) (arr : 'a array) : 'b array =
  if chunk < 1 then invalid_arg "Pool.parallel_map_init: chunk must be >= 1";
  let cancelled () =
    match cancel with Some c -> Cancel.cancelled c | None -> false
  in
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.size = 1 || n = 1 then begin
    let state = init 0 in
    Array.mapi
      (fun i x ->
        if cancelled () then raise Cancel.Cancelled;
        f state i x)
      arr
  end
  else begin
    let results : 'b option array = Array.make n None in
    let cursor = Atomic.make 0 in
    let error : exn option Atomic.t = Atomic.make None in
    let job slot =
      match init slot with
      | exception e -> ignore (Atomic.compare_and_set error None (Some e))
      | state ->
          let continue = ref true in
          while !continue do
            let start = Atomic.fetch_and_add cursor chunk in
            if start >= n || Atomic.get error <> None || cancelled () then
              continue := false
            else
              let stop = min n (start + chunk) in
              try
                for i = start to stop - 1 do
                  results.(i) <- Some (f state i arr.(i))
                done
              with e ->
                ignore (Atomic.compare_and_set error None (Some e));
                continue := false
          done
    in
    run_job t job;
    (match Atomic.get error with Some e -> raise e | None -> ());
    if cancelled () && Array.exists Option.is_none results then
      raise Cancel.Cancelled;
    Array.map (function Some r -> r | None -> assert false) results
  end

(** [parallel_mapi t ~f arr] = [Array.mapi f arr], in parallel. *)
let parallel_mapi t ?chunk ?cancel ~f arr =
  parallel_map_init t ?chunk ?cancel ~init:(fun _ -> ()) ~f:(fun () i x -> f i x) arr

(** [parallel_map t ~f arr] = [Array.map f arr], in parallel. *)
let parallel_map t ?chunk ?cancel ~f arr =
  parallel_map_init t ?chunk ?cancel ~init:(fun _ -> ()) ~f:(fun () _ x -> f x) arr
