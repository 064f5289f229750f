(** The Scallop interpreter CLI (the [scli] role of paper Sec. 5).

    [scallop run FILE] parses, compiles and executes a .scl file under a
    chosen provenance and prints the output relations with their recovered
    tags.  [scallop compile FILE] dumps the compiled SclRam program, and
    [scallop repl] provides an interactive toplevel where each line is
    either an item to add or a query to evaluate. *)

open Cmdliner
open Scallop_core

let provenance_conv =
  let parse s =
    match Registry.spec_of_string s with
    | Some spec -> Ok spec
    | None ->
        Error
          (`Msg
            (Fmt.str "unknown provenance %S (available: %s)" s
               (String.concat ", " Registry.all_names)))
  in
  let print fmt spec = Fmt.string fmt (Provenance.name (Registry.create spec)) in
  Arg.conv (parse, print)

let provenance_arg =
  Arg.(
    value
    & opt provenance_conv Registry.Boolean
    & info [ "p"; "provenance" ] ~docv:"PROVENANCE"
        ~doc:"Provenance to execute under (e.g. boolean, minmaxprob, difftopkproofs-3).")

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Scallop source file.")

let files_arg =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"FILE" ~doc:"Scallop source file(s); several files run as one batch.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Execute over $(docv) domains via the worker pool (0 = one per core). With \
           several FILEs the programs run in parallel; outputs are printed in input \
           order and are identical to a sequential run.")

let resolve_jobs jobs = if jobs <= 0 then Scallop_utils.Pool.default_jobs () else jobs

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed for samplers.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile"; "stats" ]
        ~doc:"Collect execution statistics and print a per-RAM-node profile after the outputs.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget per file, in seconds. A file exceeding it reports a budget \
           error; remaining files still run and the exit status is nonzero at the end.")

let max_tuples_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-tuples" ] ~docv:"N"
        ~doc:"Cap the cumulative number of tuples derived by rule evaluations per file.")

let max_iterations_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-iterations" ] ~docv:"N"
        ~doc:"Cap fixpoint iterations per stratum (default 10000).")

let make_config ?(budget = Budget.default) ~seed ~profile () =
  {
    (Interp.default_config ()) with
    Interp.rng = Scallop_utils.Rng.create seed;
    budget;
    stats = (if profile then Some (Interp.empty_stats ()) else None);
  }

(* In_channel.input_all works on pipes too (e.g. [scallop run /dev/stdin]). *)
let read_file path =
  let ic = open_in path in
  let s = In_channel.input_all ic in
  close_in ic;
  s

let loader_for path file =
  let dir = Filename.dirname path in
  let candidate = Filename.concat dir file in
  if Sys.file_exists candidate then Some (read_file candidate) else None

let print_outputs (result : Session.result) =
  List.iter
    (fun (pred, rows) ->
      List.iter
        (fun (t, o) -> Fmt.pr "%a::%s%a@." Provenance.Output.pp o pred Tuple.pp t)
        rows)
    result.Session.outputs

let run_term =
  let run provenance seed profile jobs timeout max_tuples max_iterations paths =
    let jobs = resolve_jobs jobs in
    let budget = Budget.make ?timeout ?max_iterations ?max_tuples () in
    (* Compile on the main domain (compilation is cheap and stateful-ish),
       then fan the executions out: each file runs under its own config —
       same seed, fresh profiling sink — so results match a sequential run
       file-for-file regardless of the worker count.  Failures are per file:
       a file that fails to compile, exceeds its budget, or errors at
       runtime is reported on stderr and the remaining files still run; the
       exit status is nonzero iff any file failed. *)
    let compiled =
      Array.of_list
        (List.map
           (fun path ->
             let c =
               try Ok (Session.compile ~load:(loader_for path) (read_file path)) with
               | Session.Error e -> Error e
               | Sys_error msg -> Error (Exec_error.Invalid_input { msg })
             in
             (path, c))
           paths)
    in
    (* Total: errors come back as values, so the pool always drains. *)
    let run_one (_path, c) =
      match c with
      | Error e -> Error e
      | Ok c -> (
          let config = make_config ~budget ~seed ~profile () in
          try Ok (c, Session.run ~config ~provenance:(Registry.create provenance) c ())
          with Session.Error e -> Error e)
    in
    let results =
      if jobs > 1 && Array.length compiled > 1 then
        Scallop_utils.Pool.with_pool jobs (fun pool ->
            Scallop_utils.Pool.parallel_map pool ~f:run_one compiled)
      else Array.map run_one compiled
    in
    let failures = ref 0 in
    Array.iteri
      (fun i outcome ->
        let path = fst compiled.(i) in
        if Array.length compiled > 1 then Fmt.pr "=== %s@." path;
        match outcome with
        | Ok (c, result) -> (
            print_outputs result;
            match result.Session.stats with
            | Some stats -> Fmt.pr "%a" (Interp.pp_profile c.Session.plan) stats
            | None -> ())
        | Error e ->
            incr failures;
            Fmt.epr "error: %s: %s@." path (Session.error_string e))
      results;
    if !failures = 0 then `Ok ()
    else
      `Error
        ( false,
          Fmt.str "%d of %d file%s failed" !failures (Array.length compiled)
            (if Array.length compiled = 1 then "" else "s") )
  in
  Term.(
    ret
      (const run $ provenance_arg $ seed_arg $ profile_arg $ jobs_arg $ timeout_arg
     $ max_tuples_arg $ max_iterations_arg $ files_arg))

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"Execute a Scallop program and print its output relations.") run_term

let compile_cmd =
  let run path =
    try
      let source = read_file path in
      let compiled = Session.compile ~load:(loader_for path) source in
      Fmt.pr "%a" Ram.pp_program compiled.Session.ram;
      `Ok ()
    with Session.Error e -> `Error (false, Session.error_string e)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a Scallop program and dump the SclRam query plan.")
    Term.(ret (const run $ file_arg))

let repl_cmd =
  let run provenance seed profile =
    Fmt.pr "Scallop REPL — enter items (rel/type/const/query); an empty line executes.@.";
    let buffer = Buffer.create 256 in
    (* One RNG for the whole session (repeated executions keep sampling new
       draws); a fresh stats sink per execution so profiles don't accumulate. *)
    let base_config = make_config ~seed ~profile () in
    let rec loop () =
      Fmt.pr "scl> %!";
      match In_channel.input_line stdin with
      | None -> ()
      | Some "" ->
          (try
             let config =
               if profile then { base_config with Interp.stats = Some (Interp.empty_stats ()) }
               else base_config
             in
             let compiled = Session.compile (Buffer.contents buffer) in
             let result =
               Session.run ~config ~provenance:(Registry.create provenance) compiled ()
             in
             print_outputs result;
             match result.Session.stats with
             | Some stats -> Fmt.pr "%a" (Interp.pp_profile compiled.Session.plan) stats
             | None -> ()
           with Session.Error e -> Fmt.epr "error: %s@." (Session.error_string e));
          loop ()
      | Some line ->
          Buffer.add_string buffer line;
          Buffer.add_char buffer '\n';
          loop ()
    in
    loop ();
    `Ok ()
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive toplevel: accumulate items, execute on empty line.")
    Term.(ret (const run $ provenance_arg $ seed_arg $ profile_arg))

(* ---- [scallop serve]: the supervised inference service over stdio ------------ *)

let serve_cmd =
  let module Service = Scallop_serve.Service in
  let module Chaos = Scallop_serve.Chaos in
  let module Protocol = Scallop_serve.Protocol in
  let module Incr = Scallop_incr.Incr in
  let module Durable = Scallop_incr.Durable in
  let module Replica = Scallop_incr.Replica in
  let queue_depth_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Admission limit: requests waiting beyond $(docv) are shed immediately with a \
             typed 'overloaded' reply instead of queueing unboundedly.")
  in
  let request_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "request-timeout" ] ~docv:"SEC"
          ~doc:
            "Per-request deadline from submission, in seconds; queue wait, retries and \
             injected stalls all consume it.")
  in
  let max_retries_arg =
    Arg.(
      value & opt int 2
      & info [ "max-retries" ] ~docv:"N"
          ~doc:
            "Transient-failure retries per request (worker lost, poisoned numerics), with \
             capped jittered exponential backoff.")
  in
  let chaos_seed_arg =
    Arg.(
      value & opt int 0
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:"Seed of the fault-injection decision streams (reproducible chaos).")
  in
  let prob_arg name doc = Arg.(value & opt float 0.0 & info [ name ] ~docv:"PROB" ~doc) in
  let chaos_kill_arg = prob_arg "chaos-kill" "Probability an attempt kills its worker domain." in
  let chaos_latency_arg =
    prob_arg "chaos-latency" "Probability an attempt stalls without heartbeating."
  in
  let chaos_latency_secs_arg =
    Arg.(
      value & opt float 0.05
      & info [ "chaos-latency-secs" ] ~docv:"SEC" ~doc:"Injected stall duration, seconds.")
  in
  let chaos_budget_arg =
    prob_arg "chaos-budget" "Probability an attempt reports a synthetic budget fault."
  in
  let chaos_nan_arg =
    prob_arg "chaos-nan" "Probability a result's output probabilities are NaN-poisoned."
  in
  let base_arg =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"FILE"
        ~doc:"Optional base program prefixed to every request (types, rules, data).")
  in
  let state_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Durable session state: every open/assert/retract/close is write-ahead logged \
             under $(docv) before it is applied, with periodic compacted snapshots. On \
             startup, sessions found in $(docv) are recovered (snapshot + bounded replay) \
             and answer queries bit-identically to an uncrashed service. Without this \
             flag, session state is in-memory only.")
  in
  let max_live_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-live-sessions" ] ~docv:"N"
          ~doc:
            "LRU cap on hydrated sessions (requires $(b,--state-dir)): beyond $(docv), the \
             least-recently-used idle session is spilled to disk and transparently \
             rehydrated on its next touch.")
  in
  let session_ttl_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "session-ttl" ] ~docv:"SEC"
          ~doc:
            "Idle TTL (requires $(b,--state-dir)): sessions untouched for $(docv) seconds \
             are spilled to disk.")
  in
  let snapshot_every_arg =
    Arg.(
      value & opt int 64
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "Ops between compaction snapshots of a durable session; recovery replay is \
             bounded by this.")
  in
  let no_wal_sync_arg =
    Arg.(
      value & flag
      & info [ "no-wal-sync" ]
          ~doc:
            "Skip the per-append fsync. Acknowledged ops then survive a process kill but \
             not a power loss.")
  in
  let repl_ship_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "repl-ship" ] ~docv:"DIR"
          ~doc:
            "Primary role: stream every durable session update as checksummed frames into \
             the ship log under $(docv), for follower processes to replay into warm \
             standbys. Requires $(b,--state-dir).")
  in
  let repl_follow_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "repl-follow" ] ~docv:"DIR"
          ~doc:
            "Follower role: tail the ship log under $(docv), replaying frames into standby \
             sessions (queries allowed; writes refused until $(b,repl promote)). Requires \
             $(b,--state-dir).")
  in
  let repl_id_arg =
    Arg.(
      value & opt string "node"
      & info [ "repl-id" ] ~docv:"NAME"
          ~doc:"This node's replication identity (names its epoch claims and ack log).")
  in
  let repl_ack_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("none", Scallop_incr.Replica.Ack_none);
               ("async", Scallop_incr.Replica.Ack_async);
               ("quorum", Scallop_incr.Replica.Ack_quorum);
             ])
          Scallop_incr.Replica.Ack_async
      & info [ "repl-ack" ] ~docv:"MODE"
          ~doc:
            "Acknowledgement discipline of a primary: $(b,none) ships without looking \
             back, $(b,async) ships and tracks follower lag without blocking, \
             $(b,quorum) blocks each write until a majority of $(b,--repl-followers) \
             followers have fsynced it.")
  in
  let repl_followers_arg =
    Arg.(
      value & opt int 1
      & info [ "repl-followers" ] ~docv:"N"
          ~doc:"Cluster follower count quorum acknowledgement is computed against (N/2+1).")
  in
  let repl_ack_timeout_arg =
    Arg.(
      value & opt float 5.0
      & info [ "repl-ack-timeout" ] ~docv:"SEC"
          ~doc:
            "Quorum wait deadline per write; expiry yields a typed ack-timeout error (the \
             write is locally durable but its replication level is unknown).")
  in
  let repl_segment_frames_arg =
    Arg.(
      value & opt int 4096
      & info [ "repl-segment-frames" ] ~docv:"N"
          ~doc:
            "Rotate the ship log every $(docv) frames; each new segment opens with \
             snapshots of every live session, bounding follower catch-up.")
  in
  let repl_retain_arg =
    Arg.(
      value & opt int 2
      & info [ "repl-retain" ] ~docv:"N"
          ~doc:"Rotated ship segments kept behind the active one before pruning.")
  in
  let repl_auto_promote_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "repl-auto-promote" ] ~docv:"SEC"
          ~doc:
            "Supervised failover: a follower that sees no primary heartbeat for $(docv) \
             seconds promotes itself (claims the next fencing epoch and starts accepting \
             writes). Without this flag promotion is manual via $(b,repl promote).")
  in
  let max_line_bytes_arg =
    Arg.(
      value & opt int 1048576
      & info [ "max-line-bytes" ] ~docv:"N"
          ~doc:
            "Reject protocol lines longer than $(docv) bytes with a typed error instead \
             of buffering them.")
  in
  let run provenance seed jobs queue_depth request_timeout max_retries chaos_seed chaos_kill
      chaos_latency chaos_latency_secs chaos_budget chaos_nan state_dir max_live session_ttl
      snapshot_every no_wal_sync repl_ship repl_follow repl_id repl_ack
      repl_followers repl_ack_timeout repl_segment_frames repl_retain repl_auto_promote
      max_line_bytes base =
    let conflict =
      if repl_ship <> None && repl_follow <> None then
        Some "--repl-ship and --repl-follow are mutually exclusive"
      else if (repl_ship <> None || repl_follow <> None) && state_dir = None then
        Some "replication (--repl-ship / --repl-follow) requires --state-dir"
      else None
    in
    match conflict with
    | Some msg -> `Error (false, msg)
    | None ->
    let base_src = match base with None -> "" | Some path -> read_file path ^ "\n" in
    let chaos =
      {
        Chaos.kill_prob = chaos_kill;
        latency_prob = chaos_latency;
        latency = chaos_latency_secs;
        budget_fault_prob = chaos_budget;
        nan_prob = chaos_nan;
        seed = chaos_seed;
      }
    in
    let config =
      {
        (Service.default_config ()) with
        Service.jobs = resolve_jobs jobs;
        queue_depth;
        request_timeout;
        max_retries;
        interp = make_config ~seed ~profile:false ();
        chaos;
      }
    in
    let svc = Service.create ~config provenance in
    (* Replication roles.  A primary ships every durable update into the
       ship log (via the repl sink wired into [Durable]); a follower's
       registry starts as a standby and a poller thread tails the ship
       log into it.  Like the printer below, these helper loops are
       threads on the main domain: the only domains are the service's
       workers, since every extra domain joins each stop-the-world minor
       GC. *)
    let primary =
      Option.map
        (fun dir ->
          Replica.Primary.create ~dir ~id:repl_id ~ack:repl_ack ~cluster:repl_followers
            ~ack_timeout:repl_ack_timeout ~segment_frames:repl_segment_frames
            ~retain:repl_retain ())
        repl_ship
    in
    let dmgr =
      Durable.create
        (Durable.config ?state_dir ?max_live ?idle_ttl:session_ttl ~snapshot_every
           ~wal_sync:(not no_wal_sync)
           ~group_commit:true
           ?repl:(Option.map Replica.Primary.sink primary)
           ~standby:(repl_follow <> None) ~interp:config.Service.interp provenance)
    in
    (* Sessions recovered from --state-dir join the ship log immediately,
       so a follower attaching now does not wait for the next rotation. *)
    if primary <> None then Durable.ship_barrier dmgr;
    let follower =
      Option.map (fun dir -> Replica.Follower.create ~dir ~fid:repl_id ~mgr:dmgr ()) repl_follow
    in
    let repl_stop = Atomic.make false in
    let heartbeat_thread =
      Option.map
        (fun p ->
          Thread.create
            (fun () ->
              while not (Atomic.get repl_stop) do
                Replica.Primary.heartbeat p;
                Unix.sleepf 0.25
              done)
            ())
        primary
    in
    let poller_thread =
      Option.map
        (fun f ->
          Thread.create
            (fun () ->
              let auto_promoted = ref false in
              while not (Atomic.get repl_stop) do
                (try if Replica.Follower.poll f = 0 then Unix.sleepf 0.002
                 with _ -> Unix.sleepf 0.01);
                match repl_auto_promote with
                | Some ttl when not !auto_promoted -> (
                    match Replica.Follower.primary_age f with
                    | Some age when age > ttl ->
                        (try
                           let e = Replica.Follower.promote f in
                           Fmt.epr "repl: primary heartbeat stale (%.1fs); promoted to epoch %d@." age
                             e
                         with Session.Error _ -> () (* promoted by hand already *));
                        auto_promoted := true
                    | _ -> ())
                | _ -> ()
              done)
            ())
        follower
    in
    (* Protocol: one request per stdin line ([;] separates items within a
       line).  Replies stream on stdout in request order: zero or more
       [out <id> ...] rows, then exactly one [done <id> ok|error ...] status
       line per request.  Per-request failures are replies, not a process
       failure: the exit status is 0 as long as the service answered.

       A line starting with a stateful verb drives a stateful session
       instead of a one-shot query:

         open <sid> [hash=<hex>] <program>   compile (shared plan cache) + open
         assert <sid> [<prob>::]<pred>(<args>)
         retract <sid> <pred>(<args>)
         query <sid> [<rel> ...]             rows + done, via the worker pool
         close <sid>
         stats                               plan-cache / WMC / session counters

       Updates apply in line order (strictly serialized against the
       session's in-flight queries); anything else is the legacy one-shot
       path. *)
    (* In-flight query tickets per session.  The session registry itself —
       including recovery from --state-dir, WAL-before-apply commit, and
       idle eviction — lives in [Durable]. *)
    let tickets : (string, Service.ticket list ref) Hashtbl.t = Hashtbl.create 8 in
    let pmutex = Mutex.create () in
    let pcond = Condition.create () in
    let pending = Queue.create () in
    let eof = ref false in
    (* The printer thread is the only writer of stdout ([Format] is not
       thread-safe).  Each reply is rendered into [out] and flushed once,
       so an 80-row reply costs one write rather than one per row. *)
    let printer =
      Thread.create
        (fun () ->
          let out = Buffer.create 4096 in
          let ppf = Format.formatter_of_buffer out in
          let rec loop () =
            Mutex.lock pmutex;
            while Queue.is_empty pending && not !eof do
              Condition.wait pcond pmutex
            done;
            let item = if Queue.is_empty pending then None else Some (Queue.pop pending) in
            Mutex.unlock pmutex;
            match item with
            | None -> ()
            | Some (n, reply) ->
                (match reply with
                | `Err e -> Fmt.pf ppf "done %d error compile %s@." n (Session.error_string e)
                | `Lines lines -> List.iter (fun l -> Fmt.pf ppf "%s@." l) lines
                | `Ticket ticket -> (
                    let o = Service.await svc ticket in
                    let rung = Registry.spec_name o.Service.rung in
                    let ms = 1000.0 *. o.Service.latency in
                    match o.Service.response with
                    | Ok result ->
                        List.iter
                          (fun (pred, rows) ->
                            List.iter
                              (fun (t, tag) ->
                                Fmt.pf ppf "out %d %a::%s%a@." n Provenance.Output.pp tag
                                  pred Tuple.pp t)
                              rows)
                          result.Session.outputs;
                        Fmt.pf ppf "done %d ok rung=%s attempts=%d ms=%.1f@." n rung
                          o.Service.attempts ms
                    | Error e ->
                        Fmt.pf ppf "done %d error rung=%s attempts=%d %s@." n rung
                          o.Service.attempts (Session.error_string e)));
                Buffer.output_buffer stdout out;
                flush stdout;
                Buffer.clear out;
                loop ()
          in
          loop ())
        ()
    in
    let push n reply =
      Mutex.lock pmutex;
      Queue.push (n, reply) pending;
      Condition.signal pcond;
      Mutex.unlock pmutex
    in
    (* Run a verb; protocol misuse surfaces as a typed Invalid_input reply
       and any other exception as a typed runtime error — a request can
       fail, never crash or wedge the service.  Stack_overflow and
       Out_of_memory stay fatal: the process state is suspect. *)
    let verb n f =
      push n
        (try f () with
        | Session.Error e -> `Lines [ Fmt.str "done %d error %s" n (Session.error_string e) ]
        | (Stack_overflow | Out_of_memory) as e -> raise e
        | exn ->
            `Lines
              [
                Fmt.str "done %d error %s" n
                  (Session.error_string
                     (Exec_error.Runtime_error { msg = "internal: " ^ Printexc.to_string exn }));
              ])
    in
    let lookup sid =
      if not (Durable.exists dmgr ~sid) then Session.invalid_input "unknown session %s" sid
    in
    let pending_of sid =
      match Hashtbl.find_opt tickets sid with
      | Some r -> r
      | None ->
          let r = ref [] in
          Hashtbl.add tickets sid r;
          r
    in
    (* Serialize updates and close against ALL of the session's in-flight
       queries, so a later assert can never be observed by an earlier query
       executing on a worker domain.  Awaiting only the most recent ticket
       is not enough: with two or more workers, two queries on the same
       session can execute concurrently, and a close that awaited just the
       newer one could tear the session down under the older — which then
       failed spuriously with "session is closed". *)
    let drain sid =
      let r = pending_of sid in
      List.iter (fun tk -> ignore (Service.await svc tk)) (List.rev !r);
      r := []
    in
    let unquote line = String.map (fun c -> if c = ';' then '\n' else c) line in
    let repl_status_lines n =
      match (primary, follower) with
      | Some p, _ ->
          let s = Replica.Primary.status p in
          Fmt.str
            "out %d repl role=primary id=%s epoch=%d ack=%s seg=%d frames=%d shipped=%d \
             rotations=%d barriers=%d lag-mean-ms=%.3f lag-max-ms=%.3f fenced=%s"
            n repl_id s.Replica.Primary.st_epoch (Replica.ack_mode_string repl_ack) s.st_seg
            s.st_frames s.st_shipped s.st_rotations s.st_barriers s.st_mean_barrier_ms
            s.st_max_barrier_ms
            (match s.st_fenced with Some e -> string_of_int e | None -> "no")
          :: List.map
               (fun (fid, a) ->
                 Fmt.str "out %d repl follower %s epoch=%d seg=%d idx=%d%s" n fid
                   a.Replica.a_epoch a.a_seg a.a_idx
                   (if a.a_fence then " fence" else ""))
               s.st_followers
      | None, Some f ->
          let s = Replica.Follower.status f in
          Fmt.str
            "out %d repl role=%s id=%s epoch=%d seg=%d idx=%d applied=%d skipped=%d \
             installs=%d adoptions=%d seals=%d divergences=%d awaiting=%d primary-age=%s"
            n
            (if s.Replica.Follower.st_promoted then "promoted" else "follower")
            repl_id s.st_epoch s.st_seg s.st_idx s.st_applied s.st_skipped s.st_installs
            s.st_adoptions s.st_seals s.st_divergences s.st_awaiting
            (match s.st_primary_age with Some a -> Fmt.str "%.1fs" a | None -> "none")
          :: ((match s.st_last_error with
              | None -> []
              | Some e -> [ Fmt.str "out %d repl last-error %s" n e ])
             @ List.map
                 (fun (sid, lsn, seg) ->
                   Fmt.str "out %d repl session %s lsn=%d seg=%d" n sid lsn seg)
                 s.st_sessions)
      | None, None -> [ Fmt.str "out %d repl role=none" n ]
    in
    let dispatch n (req : Protocol.request) =
      match req with
      | Protocol.Open { sid; expect_hash; program } ->
          verb n (fun () ->
              let hash =
                Durable.open_session dmgr ~sid ?expect_hash (base_src ^ unquote program)
              in
              `Lines [ Fmt.str "done %d ok opened %s hash=%s" n sid hash ])
      | Protocol.Assert { sid; prob; pred; tuple } ->
          verb n (fun () ->
              lookup sid;
              drain sid;
              Durable.assert_fact dmgr ~sid ~pred ?prob tuple;
              `Lines [ Fmt.str "done %d ok asserted %s" n sid ])
      | Protocol.Retract { sid; pred; tuple } ->
          verb n (fun () ->
              lookup sid;
              drain sid;
              Durable.retract_fact dmgr ~sid ~pred tuple;
              `Lines [ Fmt.str "done %d ok retracted %s" n sid ])
      | Protocol.Query { sid; outputs } ->
          verb n (fun () ->
              lookup sid;
              let tk =
                Service.submit_exec svc (fun ~rung:_ ~config ->
                    Durable.query ?outputs ~budget:config.Interp.budget dmgr ~sid ())
              in
              let r = pending_of sid in
              r := tk :: List.filter (fun t -> Service.poll svc t = None) !r;
              `Ticket tk)
      | Protocol.Close { sid } ->
          verb n (fun () ->
              lookup sid;
              drain sid;
              let st = Durable.close dmgr ~sid in
              `Lines
                [
                  Fmt.str "out %d session %s %a" n sid Incr.pp_session_stats st;
                  Fmt.str "done %d ok closed %s" n sid;
                ])
      | Protocol.Stats ->
          verb n (fun () ->
              let pc = Session.plan_cache_stats () in
              let wc = Wmc.cache_stats () in
              let c = Durable.session_counts dmgr in
              let open_sessions = c.Durable.live + c.Durable.spilled + c.Durable.failed in
              `Lines
                ([
                   Fmt.str "out %d plan-cache hits=%d misses=%d evictions=%d entries=%d" n
                     pc.Session.hits pc.Session.misses pc.Session.evictions pc.Session.entries;
                   Fmt.str
                     "out %d wmc bdd-hits=%d bdd-misses=%d result-hits=%d \
                      result-misses=%d resets=%d nodes=%d"
                     n wc.Wmc.bdd_hits wc.Wmc.bdd_misses wc.Wmc.result_hits
                     wc.Wmc.result_misses wc.Wmc.resets wc.Wmc.manager_nodes;
                   Fmt.str "out %d sessions open=%d" n open_sessions;
                 ]
                @ (match state_dir with
                  | None -> []
                  | Some _ ->
                      [
                        Fmt.str "out %d durability %a live=%d spilled=%d failed=%d" n
                          Durable.pp_stats (Durable.stats dmgr) c.Durable.live
                          c.Durable.spilled c.Durable.failed;
                      ])
                @ (match primary with
                  | None -> []
                  | Some p ->
                      let s = Replica.Primary.status p in
                      [
                        Fmt.str
                          "out %d repl role=primary epoch=%d shipped=%d followers=%d \
                           lag-mean-ms=%.3f"
                          n s.Replica.Primary.st_epoch s.st_shipped
                          (List.length s.st_followers) s.st_mean_barrier_ms;
                      ])
                @ (match follower with
                  | None -> []
                  | Some f ->
                      let s = Replica.Follower.status f in
                      [
                        Fmt.str "out %d repl role=%s epoch=%d applied=%d divergences=%d" n
                          (if s.Replica.Follower.st_promoted then "promoted" else "follower")
                          s.st_epoch s.st_applied s.st_divergences;
                      ])
                @ [ Fmt.str "done %d ok stats" n ]))
      | Protocol.Scrub ->
          verb n (fun () ->
              let reports = Durable.scrub dmgr in
              let lines =
                List.concat_map
                  (fun r ->
                    Fmt.str "out %d scrub %s snapshots=%d segments=%d errors=%d" n
                      r.Durable.sc_sid r.Durable.sc_snapshots r.Durable.sc_segments
                      (List.length r.Durable.sc_errors)
                    :: List.map
                         (fun e -> Fmt.str "out %d scrub %s ! %s" n r.Durable.sc_sid e)
                         r.Durable.sc_errors)
                  reports
              in
              let bad =
                List.fold_left (fun acc r -> acc + List.length r.Durable.sc_errors) 0 reports
              in
              `Lines
                (lines
                @ [
                    Fmt.str "done %d ok scrub sessions=%d errors=%d" n (List.length reports)
                      bad;
                  ]))
      | Protocol.Repl_status ->
          verb n (fun () -> `Lines (repl_status_lines n @ [ Fmt.str "done %d ok repl" n ]))
      | Protocol.Repl_promote { epoch } ->
          verb n (fun () ->
              match follower with
              | None -> Session.invalid_input "repl promote: this node is not a follower"
              | Some f ->
                  let e = Replica.Follower.promote ?epoch f in
                  `Lines [ Fmt.str "done %d ok promoted epoch=%d" n e ])
      | Protocol.Run { program } ->
          push n
            (match Session.compile (base_src ^ unquote program) with
            | compiled -> `Ticket (Service.submit svc compiled)
            | exception Session.Error e -> `Err e)
    in
    let requests = Protocol.reader ~max_line:max_line_bytes stdin in
    let reqno = ref 0 in
    let rec read_loop () =
      match Protocol.read_request requests with
      | None -> ()
      | Some outcome ->
          let n = !reqno in
          incr reqno;
          (match outcome with
          | Error e -> push n (`Lines [ Fmt.str "done %d error %s" n (Session.error_string e) ])
          | Ok req -> dispatch n req);
          read_loop ()
    in
    read_loop ();
    Atomic.set repl_stop true;
    Option.iter Thread.join poller_thread;
    Option.iter Thread.join heartbeat_thread;
    Mutex.lock pmutex;
    eof := true;
    Condition.broadcast pcond;
    Mutex.unlock pmutex;
    Thread.join printer;
    Service.shutdown svc;
    Durable.shutdown dmgr;
    Option.iter Replica.Primary.close primary;
    Option.iter Replica.Follower.close follower;
    Fmt.epr "service: %a@." Service.pp_stats (Service.stats svc);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived query service: newline-delimited requests on stdin, per-request status \
          lines on stdout, with admission control, retry, circuit-broken degradation and a \
          supervised worker pool.")
    Term.(
      ret
        (const run $ provenance_arg $ seed_arg $ jobs_arg $ queue_depth_arg
       $ request_timeout_arg $ max_retries_arg $ chaos_seed_arg $ chaos_kill_arg
       $ chaos_latency_arg $ chaos_latency_secs_arg $ chaos_budget_arg $ chaos_nan_arg
       $ state_dir_arg $ max_live_arg $ session_ttl_arg $ snapshot_every_arg
       $ no_wal_sync_arg $ repl_ship_arg $ repl_follow_arg
       $ repl_id_arg $ repl_ack_arg $ repl_followers_arg $ repl_ack_timeout_arg
       $ repl_segment_frames_arg $ repl_retain_arg $ repl_auto_promote_arg
       $ max_line_bytes_arg $ base_arg))

let main_cmd =
  (* [run] is the default command, so [scallop --profile FILE] works without
     spelling out [run]. *)
  Cmd.group ~default:run_term
    (Cmd.info "scallop" ~version:"1.0.0"
       ~doc:"Scallop: a language for neurosymbolic programming (OCaml reproduction).")
    [ run_cmd; compile_cmd; repl_cmd; serve_cmd ]

let () = exit (Cmd.eval main_cmd)
