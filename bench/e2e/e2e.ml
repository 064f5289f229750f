(** End-to-end benchmark entry point; README.md describes the workloads,
    the metrics and how to read a trace.

    {v
    e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1|FILE]
    e2e.exe --repeat N [--workload NAME] [--seed N]
    e2e.exe --smoke
    v}

    A run prints a host fingerprint, a table of every metric with its unit
    and sample count, and as its last line one JSON object
    [{"correct", "attempted", "failed", "metrics"}].  [--trace 0] reports
    the end-to-end metrics; [--trace 1] (or [--trace FILE]) runs the
    subprocess pass, an untraced in-process replay and a traced one, and
    reports the per-layer metrics.  Exit status 0 iff every answer matched
    its oracle. *)

module Durable = Scallop_incr.Durable
module Replica = Scallop_incr.Replica

let workloads = [ "sessions-maintain"; "sessions-quorum"; "oneshot-mixed"; "train-sum3" ]

(* ---- sizes --------------------------------------------------------------------- *)

type sizes = {
  maintain : Gen.sessions;
  quorum : Gen.sessions;
  oneshot : Gen.oneshot;
  warmup : int;  (** one-shot requests sent during set-up *)
  train_n : int;  (** training samples per call (one epoch) *)
  train_test : int;
  setups : int;  (** set-ups per untraced run; [setup_s] is their median *)
  accuracy_floor : float;
      (** least median test accuracy of a run's calls: sum3 chance is 1/28, always
          answering the likeliest sum scores 0.075 *)
}

let full =
  {
    maintain = { Gen.tenants = 16; nodes = 40; edges = 100; assert_pct = 30; retract_pct = 30 };
    quorum = { Gen.tenants = 8; nodes = 40; edges = 40; assert_pct = 40; retract_pct = 40 };
    oneshot =
      {
        Gen.o_nodes = 60;
        o_edges = 150;
        groups = 40;
        per_group = 40;
        reach_pct = 40;
        unreach_pct = 30;
      };
    warmup = 30;
    train_n = 320;
    train_test = 100;
    setups = 3;
    accuracy_floor = 0.1;
  }

let tiny =
  {
    maintain = { Gen.tenants = 2; nodes = 12; edges = 16; assert_pct = 30; retract_pct = 30 };
    quorum = { Gen.tenants = 2; nodes = 8; edges = 8; assert_pct = 40; retract_pct = 40 };
    oneshot =
      {
        Gen.o_nodes = 12;
        o_edges = 16;
        groups = 3;
        per_group = 4;
        reach_pct = 40;
        unreach_pct = 30;
      };
    warmup = 3;
    train_n = 32;
    train_test = 16;
    setups = 1;
    accuracy_floor = 0.0;
  }

(* Closed-loop window: two outstanding requests keep the single worker busy
   while the client reads a reply; one-shot uses one, since two spread 12%
   across runs against 6% for one. *)
let window = function "sessions-maintain" | "sessions-quorum" -> 2 | _ -> 1

(* ---- metrics ------------------------------------------------------------------- *)

type metric = { name : string; unit : string; value : float }

let metric name unit value = { name; unit; value }

(** The child spans of a request, one per layer call. *)
let layer_spans =
  [
    "protocol.parse"; "session.compile"; "service.queue"; "interp.run"; "durable.query";
    "serve.drain"; "durable.write"; "serve.reply_order"; "service.complete"; "nn.classify";
    "layer.forward"; "autodiff.backward"; "optim.step";
  ]

(** Names and units of the per-layer metrics, in report order. *)
let per_layer_units =
  List.map (fun s -> (s ^ "_pct", "%")) layer_spans
  @ [
      ("trace.unaccounted_pct", "%"); ("trace.overhead_pct", "%");
      ("alloc.minor_words_per_op", "words"); ("session.plan_cache_hit_ratio", "ratio");
      ("incr.strata_continued_ratio", "ratio"); ("incr.strata_recomputed_ratio", "ratio");
      ("incr.strata_reused_ratio", "ratio"); ("incr.full_runs", "count");
      ("wal.appends_per_fsync", "ratio"); ("wal.bytes_per_write", "B"); ("wal.snapshots", "count");
      ("repl.ack_wait_pct", "%"); ("repl.ship_bytes_per_write", "B");
      ("durable.disk_bytes_per_write", "B"); ("durable.recovery_replayed_ops", "count");
      ("durable.recovery_sessions_per_s", "1/s"); ("train.test_accuracy", "fraction"); ("serve.io_residual_ms_mean", "ms");
      ("replay.op_ms_mean", "ms"); ("client.p99_ms", "ms");
    ]

let end_to_end_names =
  [ "throughput"; "latency_mean_ms"; "latency_p90_ms"; "setup_s"; "peak_rss_mb" ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json ~correct ~attempted ~failed (ms : metric list) =
  let field m =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (json_number m.value) m.unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map field ms))

(* ---- host fingerprint ---------------------------------------------------------- *)

let read_first_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let l = try Some (String.trim (input_line ic)) with End_of_file -> None in
      close_in ic;
      l

(* The commit of a git checkout, read from [.git] without running git (the
   benchmark reads nothing outside its checkout); "unknown" elsewhere. *)
let commit () =
  match read_first_line ".git/HEAD" with
  | Some l when String.length l > 5 && String.sub l 0 5 = "ref: " ->
      let r = String.sub l 5 (String.length l - 5) in
      Option.value ~default:"unknown" (read_first_line (Filename.concat ".git" r))
  | Some c -> c
  | None -> "unknown"

let fingerprint ~workload ~seed ~seconds =
  Printf.printf "host nproc=%d ocaml=%s commit=%s workload=%s window=%d jobs=1 seed=%d seconds=%g\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (commit ()) workload (window workload) seed seconds

(* ---- the measured (subprocess) pass -------------------------------------------- *)

type measured = {
  attempted : int;
  failed : int;
  correct : bool;
  lat : float list;  (** seconds per request (per optimizer step for training) *)
  windows : (float * float list) list;
      (** per one-second window (per training call): requests (samples) per
          second and the latencies that completed in it *)
  setups : float list;
  rss_kb : int;
  disk_bytes_per_write : float;
  recovery_sessions_per_s : float;
  accuracy : float;
  measured_ops : int;  (** requests of the measured phase, for the replay *)
}

let of_serve_pass (p : Serve_load.pass) ~tenants : measured =
  let r = p.Serve_load.res and rc = p.Serve_load.recovery in
  let failed = r.Client.failed + rc.Client.failed in
  let writes = p.Serve_load.setup_writes + r.Client.writes in
  let recovery_s = p.Serve_load.recovery_s in
  {
    attempted = r.Client.attempted + rc.Client.attempted;
    failed;
    correct = failed = 0;
    lat = List.map snd r.Client.samples;
    windows =
      Summary.windows ~width:1.0 ~t0:r.Client.first_send ~t1:r.Client.last_done r.Client.samples;
    setups = p.Serve_load.setups;
    rss_kb = p.Serve_load.rss_kb;
    disk_bytes_per_write = float_of_int p.Serve_load.disk_bytes /. float_of_int (max 1 writes);
    recovery_sessions_per_s =
      (if recovery_s > 0.0 then float_of_int tenants /. recovery_s else 0.0);
    accuracy = 0.0;
    measured_ops = r.Client.attempted;
  }

let of_train_pass ~sizes (p : Train.pass) : measured =
  let calls = p.Train.calls in
  let n = float_of_int sizes.train_n and steps = float_of_int (Train.batches sizes.train_n) in
  let accuracy = Summary.median (List.map (fun c -> c.Train.accuracy) calls) in
  let failed = List.fold_left (fun acc c -> acc + c.Train.faults) 0 calls in
  if accuracy < sizes.accuracy_floor then
    Printf.eprintf "e2e: median test accuracy %.3f is below the floor %.3f\n%!" accuracy
      sizes.accuracy_floor;
  {
    attempted = List.length calls * sizes.train_n;
    failed;
    correct = failed = 0 && accuracy >= sizes.accuracy_floor;
    lat = List.map (fun c -> c.Train.epoch /. steps) calls;
    windows = List.map (fun c -> (n /. c.Train.epoch, [ c.Train.epoch /. steps ])) calls;
    setups = List.map (fun c -> c.Train.wall -. c.Train.epoch) calls;
    rss_kb = p.Train.rss_kb;
    disk_bytes_per_write = 0.0;
    recovery_sessions_per_s = 0.0;
    accuracy;
    measured_ops = List.length calls;
  }

let measure ~sizes ~self ~exe ~work ~workload ~seed ~seconds ~setups ~smoke : measured =
  match workload with
  | "sessions-maintain" | "sessions-quorum" ->
      let quorum = workload = "sessions-quorum" in
      let cfg = if quorum then sizes.quorum else sizes.maintain in
      of_serve_pass ~tenants:cfg.Gen.tenants
        (Serve_load.sessions ~exe ~work ~cfg ~quorum ~window:(window workload) ~seed ~seconds
           ~setups)
  | "oneshot-mixed" ->
      of_serve_pass ~tenants:0
        (Serve_load.oneshot ~exe ~work ~cfg:sizes.oneshot ~warmup:sizes.warmup ~seed ~seconds
           ~setups)
  | _ -> of_train_pass ~sizes (Train.pass ~self ~exe ~work ~seed ~seconds ~smoke)

(* Contention from other tenants of the host only ever slows a stretch of
   the run down, by 10-60% for seconds at a time.  The timing metrics are
   therefore taken over the faster half of the run's one-second windows
   (of its training calls), which tracks the program rather than the
   neighbours; README.md has the measurements behind this. *)
let quiet_share = 0.5

let end_to_end (m : measured) =
  let rate, lat = Summary.quiet ~keep:quiet_share m.windows in
  [
    metric "throughput" "1/s" rate;
    metric "latency_mean_ms" "ms" (1e3 *. Summary.mean lat);
    metric "latency_p90_ms" "ms" (1e3 *. Summary.quantile lat 0.9);
    metric "setup_s" "s" (Summary.median m.setups);
    metric "peak_rss_mb" "MB" (float_of_int m.rss_kb /. 1024.0);
  ]

(* ---- the replay child ---------------------------------------------------------- *)

(* Output protocol of [--child replay]: one "m <name> <value>" line per
   number. *)
let out name v = Printf.printf "m %s %.17g\n" name v
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let minmaxprob = Option.get (Scallop_core.Registry.spec_of_string "minmaxprob")
let boolean = Option.get (Scallop_core.Registry.spec_of_string "boolean")

let incr_totals env (g : Gen.session_gen) =
  Array.fold_left
    (fun (re, co, rc, fr) (t : Gen.tenant) ->
      let s = Durable.session_stats env.Replay.dmgr ~sid:t.Gen.sid in
      Scallop_incr.Incr.
        ( re + s.strata_reused,
          co + s.strata_continued,
          rc + s.strata_recomputed,
          fr + s.full_runs ))
    (0, 0, 0, 0) g.Gen.ts

let query_rows dmgr sid =
  match Durable.query dmgr ~sid () with
  | r -> (true, Replay.render r)
  | exception Scallop_core.Session.Error _ -> (false, [])

(* Returns the measured replay, totals over set-up and measured phase, and
   the seconds the primary spent waiting for quorum acks. *)
let replay_sessions ~(cfg : Gen.sessions) ~quorum ~window ~seed ~ops ~tr ~work ~exe =
  let dir = Filename.concat work in
  let prim_dir = dir "primary" and ship = dir "ship" and fol_dir = dir "follower" in
  List.iter Serve_load.rm_rf [ prim_dir; ship; fol_dir ];
  let primary, fol =
    if quorum then
      let fargs = [ "--state-dir"; fol_dir; "--repl-follow"; ship; "--repl-id"; "beta" ] in
      ( Some (Replica.Primary.create ~dir:ship ~id:"alpha" ~ack:Replica.Ack_quorum ~cluster:1 ()),
        Some
          (Client.spawn ~exe ~log:(dir "serve.log")
             ~args:(Serve_load.serve_args ~prov:"minmaxprob" fargs)) )
    else (None, None)
  in
  let state_dir = if quorum then Some prim_dir else None in
  let env =
    Replay.create_env ?state_dir ?primary ~tr:(Trace.create ~enabled:false) minmaxprob
  in
  let g = Gen.session_gen cfg ~seed in
  let s = Replay.run env ~window:Serve_load.setup_window (Gen.session_setup g) in
  let setup_writes = s.Replay.attempted - cfg.Gen.tenants in
  let measured = List.init ops (fun _ -> Gen.session_next g) in
  let writes = List.length (List.filter (fun (o : Gen.op) -> o.Gen.kind = Gen.Write) measured) in
  let ds = Durable.stats env.Replay.dmgr in
  let group () =
    match env.Replay.dmgr.Durable.wal_group with
    | Some g -> Scallop_utils.Wal.Group.stats g
    | None -> (0, 0)
  in
  let ack_wait () =
    match primary with Some p -> p.Replica.Primary.stats.Replica.Primary.barrier_wait | None -> 0.0
  in
  let bytes0 = ds.Durable.wal_bytes and snaps0 = ds.Durable.snapshots in
  let (syncs0, appends0), wait0 = (group (), ack_wait ()) in
  let re0, co0, rc0, fr0 = incr_totals env g in
  let r = Replay.run { env with Replay.tr } ~window measured in
  let re, co, rc, fr = incr_totals env g in
  let syncs, appends = group () in
  let pc = Scallop_core.Session.plan_cache_stats () in
  out "session.plan_cache_hit_ratio" (ratio pc.Scallop_core.Session.hits (pc.hits + pc.misses));
  let strata = re - re0 + (co - co0) + (rc - rc0) in
  out "incr.strata_reused_ratio" (ratio (re - re0) strata);
  out "incr.strata_continued_ratio" (ratio (co - co0) strata);
  out "incr.strata_recomputed_ratio" (ratio (rc - rc0) strata);
  out "incr.full_runs" (float_of_int (fr - fr0));
  out "wal.appends_per_fsync" (ratio (appends - appends0) (syncs - syncs0));
  out "wal.bytes_per_write" (ratio (ds.Durable.wal_bytes - bytes0) writes);
  out "wal.snapshots" (float_of_int (ds.Durable.snapshots - snaps0));
  out "repl.ship_bytes_per_write" (ratio (Serve_load.du ship) (setup_writes + writes));
  let ack_wait_s = ack_wait () -. wait0 in
  Replay.shutdown env;
  let attempted = ref (s.attempted + r.attempted) and failed = ref (s.failed + r.failed) in
  (match primary with
  | None -> ()
  | Some p ->
      (* Recover a fresh registry from the state dir and check every tenant. *)
      Replica.Primary.close p;
      let d2 =
        Durable.create
          (Durable.config ?state_dir ~wal_sync:true ~group_commit:true
             ~interp:(Scallop_core.Interp.default_config ()) minmaxprob)
      in
      out "durable.recovery_replayed_ops" (float_of_int (Durable.stats d2).Durable.wal_replayed);
      Array.iter
        (fun (t : Gen.tenant) ->
          let ok, rows = query_rows d2 t.Gen.sid in
          incr attempted;
          if not (Gen.check (Gen.query_op g t) ~ok ~rows) then incr failed)
        g.Gen.ts;
      Durable.shutdown d2);
  Option.iter Client.finish fol;
  (r, !attempted, !failed, ack_wait_s)

let replay_oneshot ~sizes ~seed ~ops ~tr =
  let env = Replay.create_env ~tr:(Trace.create ~enabled:false) boolean in
  let rng = Prng.create ~seed ~stream:2 in
  let warm = List.init sizes.warmup (fun _ -> Gen.oneshot_next rng sizes.oneshot) in
  let s = Replay.run env ~window:1 warm in
  let measured = List.init ops (fun _ -> Gen.oneshot_next rng sizes.oneshot) in
  let r = Replay.run { env with Replay.tr } ~window:1 measured in
  Replay.shutdown env;
  (r, s.Replay.attempted + r.Replay.attempted, s.Replay.failed + r.Replay.failed)

let replay_main ~sizes ~workload ~seed ~ops ~traced ~trace_file ~work ~exe =
  let tr = Trace.create ~enabled:traced in
  let lat, attempted, failed, words, ack_wait_s =
    match workload with
    | "train-sum3" ->
        let lat, failed, words = Train.replay ~tr ~seed ~n_train:sizes.train_n in
        (lat, List.length lat, failed, words, 0.0)
    | "oneshot-mixed" ->
        let r, attempted, failed = replay_oneshot ~sizes ~seed ~ops ~tr in
        (r.Replay.lat, attempted, failed, r.Replay.words, 0.0)
    | _ ->
        let quorum = workload = "sessions-quorum" in
        let r, attempted, failed, ack_wait_s =
          replay_sessions
            ~cfg:(if quorum then sizes.quorum else sizes.maintain)
            ~quorum ~window:(window workload) ~seed ~ops ~tr ~work ~exe
        in
        (r.Replay.lat, attempted, failed, r.Replay.words, ack_wait_s)
  in
  out "attempted" (float_of_int attempted);
  out "failed" (float_of_int failed);
  out "op_mean_s" (Summary.mean lat);
  if traced then begin
    let spans = Trace.spans tr in
    let root = if workload = "train-sum3" then "train.step" else "request" in
    let rep = Trace.analyse ~root spans in
    let pct x = 100.0 *. x /. rep.Trace.root_time in
    let per_request x = x /. float_of_int (max 1 rep.Trace.roots) in
    out "alloc.minor_words_per_op" (per_request words);
    out "trace.violations" (float_of_int rep.Trace.violations);
    out "trace.unaccounted_pct" (pct rep.Trace.unaccounted);
    out "trace.request_us_mean" (1e6 *. per_request rep.Trace.root_time);
    List.iter (fun (name, d) -> out (name ^ "_pct") (pct d)) rep.Trace.by_name;
    let write_s = Option.value ~default:0.0 (List.assoc_opt "durable.write" rep.Trace.by_name) in
    out "repl.ack_wait_pct" (if write_s > 0.0 then 100.0 *. ack_wait_s /. write_s else 0.0);
    Serve_load.mkdir_p (Filename.dirname trace_file);
    Trace.write_jsonl trace_file spans
  end

(* ---- traced run ---------------------------------------------------------------- *)

let run_replay_child ~self ~args : (string, float) Hashtbl.t =
  let ic = Unix.open_process_args_in self (Array.of_list (self :: args)) in
  let tbl = Hashtbl.create 32 in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ "m"; name; v ] -> Hashtbl.replace tbl name (float_of_string v)
       | _ -> ()
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> raise (Client.Died "replay child failed"));
  tbl

let get tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

let traced_run ~sizes ~self ~exe ~work ~workload ~seed ~seconds ~trace_file ~smoke =
  let m = measure ~sizes ~self ~exe ~work ~workload ~seed ~seconds ~setups:1 ~smoke in
  let child traced =
    run_replay_child ~self
      ~args:
        ([
           "--child"; "replay"; "--workload"; workload; "--seed"; string_of_int seed; "--ops";
           string_of_int m.measured_ops; "--traced"; (if traced then "1" else "0"); "--trace-file";
           trace_file; "--work"; Filename.concat work (if traced then "traced" else "untraced");
           "--scallop"; exe;
         ]
        @ if smoke then [ "--smoke" ] else [])
  in
  let u = child false in
  let t = child true in
  let known = "trace.unaccounted_pct" :: List.map (fun s -> s ^ "_pct") layer_spans in
  let unknown =
    Hashtbl.fold
      (fun k _ acc ->
        if Filename.check_suffix k "_pct" && not (List.mem k known || k = "repl.ack_wait_pct")
        then k :: acc
        else acc)
      t []
  in
  let violations = int_of_float (get t "trace.violations") in
  let attempted = m.attempted + int_of_float (get u "attempted" +. get t "attempted") in
  let failed = m.failed + int_of_float (get u "failed" +. get t "failed") in
  let unaccounted = get t "trace.unaccounted_pct" in
  let request_us = get t "trace.request_us_mean" in
  let from_pass =
    [
      ("trace.overhead_pct", 100.0 *. ((get t "op_mean_s" /. get u "op_mean_s") -. 1.0));
      ("durable.disk_bytes_per_write", m.disk_bytes_per_write);
      ("durable.recovery_sessions_per_s", m.recovery_sessions_per_s);
      ("train.test_accuracy", m.accuracy);
      ("serve.io_residual_ms_mean", 1e3 *. (Summary.mean m.lat -. get u "op_mean_s"));
      ("replay.op_ms_mean", 1e3 *. get u "op_mean_s");
      ("client.p99_ms", 1e3 *. Summary.quantile m.lat 0.99);
    ]
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        metric name unit
          (match List.assoc_opt name from_pass with Some v -> v | None -> get t name))
      per_layer_units
  in
  Printf.printf "self time per layer (traced in-process replay, %.1f us per request):\n" request_us;
  let row name share =
    Printf.printf "  %-20s %8.1f us  %6.2f%%\n" name (share /. 100.0 *. request_us) share
  in
  List.iter
    (fun s ->
      let share = get t (s ^ "_pct") in
      if share > 0.0 then row s share)
    layer_spans;
  row "(unaccounted)" unaccounted;
  Printf.printf "trace: %s (nesting violations: %d)\n" trace_file violations;
  if unknown <> [] then
    Printf.printf "trace: unexpected span names: %s\n" (String.concat ", " unknown);
  if unaccounted > 5.0 then
    Printf.printf "trace: spans leave %.2f%% of request time unaccounted\n" unaccounted;
  let correct = m.correct && failed = 0 && violations = 0 && unknown = [] && unaccounted <= 5.0 in
  (correct, attempted, failed, metrics)

(* ---- one run ------------------------------------------------------------------- *)

let run_one ~sizes ~self ~exe ~work ~workload ~seed ~seconds ~trace ~smoke : bool =
  Serve_load.mkdir_p work;
  let run_dir = Filename.concat work (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
  Serve_load.rm_rf run_dir;
  Serve_load.mkdir_p run_dir;
  at_exit (fun () -> Serve_load.rm_rf run_dir);
  fingerprint ~workload ~seed ~seconds;
  let correct, attempted, failed, metrics, samples =
    match trace with
    | None ->
        let m =
          measure ~sizes ~self ~exe ~work:run_dir ~workload ~seed ~seconds ~setups:sizes.setups
            ~smoke
        in
        ( m.correct,
          m.attempted,
          m.failed,
          end_to_end m,
          Printf.sprintf "%d latency samples in %d windows, %d set-ups" (List.length m.lat)
            (List.length m.windows) (List.length m.setups) )
    | Some trace_file ->
        let correct, attempted, failed, ms =
          traced_run ~sizes ~self ~exe ~work:run_dir ~workload ~seed ~seconds ~trace_file ~smoke
        in
        (correct, attempted, failed, ms, "three passes")
  in
  List.iter (fun m -> Printf.printf "  %-34s %16.6f %s\n" m.name m.value m.unit) metrics;
  Printf.printf "  (%s; %d attempted, %d failed)\n" samples attempted failed;
  let bad = List.filter (fun m -> not (Float.is_finite m.value)) metrics in
  List.iter (fun m -> Printf.printf "non-finite metric %s\n" m.name) bad;
  let correct = correct && bad = [] in
  print_endline (json ~correct ~attempted ~failed metrics);
  correct

(* ---- --repeat ------------------------------------------------------------------ *)

(* The value following "name": {"value": in one of our own result lines. *)
let json_value line name =
  let key = Printf.sprintf "\"%s\": {\"value\": " name in
  let kl = String.length key and n = String.length line in
  let rec find i =
    if i + kl > n then None
    else if String.sub line i kl = key then begin
      let j = ref (i + kl) in
      while !j < n && line.[!j] <> ',' && line.[!j] <> '}' do
        incr j
      done;
      float_of_string_opt (String.sub line (i + kl) (!j - i - kl))
    end
    else find (i + 1)
  in
  find 0

let repeat_main ~self ~exe ~work ~names ~n ~seed ~seconds =
  let values = Hashtbl.create 64 and bad = ref 0 in
  for i = 0 to n - 1 do
    List.iter
      (fun w ->
        let args =
          [
            self; "--workload"; w; "--seed"; string_of_int seed; "--seconds";
            Printf.sprintf "%g" seconds; "--trace"; "0"; "--scallop"; exe; "--work"; work;
          ]
        in
        let ic = Unix.open_process_args_in self (Array.of_list args) in
        let last = ref "" in
        (try
           while true do
             last := input_line ic
           done
         with End_of_file -> ());
        let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
        if not ok then incr bad;
        Printf.printf "repeat %d %s %s\n%!" (i + 1) w (if ok then "ok" else "FAILED");
        List.iter
          (fun name ->
            match json_value !last name with
            | Some v ->
                let prev = Option.value ~default:[] (Hashtbl.find_opt values (w, name)) in
                Hashtbl.replace values (w, name) (v :: prev)
            | None -> ())
          end_to_end_names)
      names
  done;
  Printf.printf "%-18s %-16s %14s %14s %14s %8s\n" "workload" "metric" "median" "q1" "q3" "spread";
  List.iter
    (fun w ->
      List.iter
        (fun name ->
          match Hashtbl.find_opt values (w, name) with
          | None -> ()
          | Some vs ->
              let q1, q3 = Summary.quartiles vs in
              Printf.printf "%-18s %-16s %14.6f %14.6f %14.6f %7.2f%%\n" w name (Summary.median vs)
                q1 q3
                (100.0 *. Summary.rel_spread vs))
        end_to_end_names)
    names;
  if !bad > 0 then exit 1

(* ---- entry --------------------------------------------------------------------- *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref "0" in
  let exe = ref "_build/default/bin/scallop.exe" and work = ref ".e2e_work" in
  let repeat = ref 0 and smoke = ref false and child = ref "" in
  let ops = ref 0 and traced = ref false and trace_file = ref "" in
  let usage = "e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1|FILE]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase (default 10)");
      ("--trace", Arg.Set_string trace, "0|1|FILE per-layer run; FILE receives the spans");
      ("--scallop", Arg.Set_string exe, "PATH the scallop CLI");
      ("--work", Arg.Set_string work, "DIR scratch directory (default .e2e_work)");
      ("--repeat", Arg.Set_int repeat, "N run every workload N times, alternating, and summarize");
      ("--smoke", Arg.Set smoke, " tiny traced run of every workload (self-test)");
      ("--child", Arg.Set_string child, "train|replay (internal)");
      ("--ops", Arg.Set_int ops, "N (internal) requests to replay");
      ("--traced", Arg.Int (fun v -> traced := v = 1), "0|1 (internal)");
      ("--trace-file", Arg.Set_string trace_file, "FILE (internal)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let self = Sys.executable_name in
  let sizes = if !smoke then tiny else full in
  at_exit Client.kill_all;
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "e2e: time limit exceeded";
         exit 3));
  let fail msg =
    Printf.eprintf "e2e: %s\n%!" msg;
    exit 2
  in
  if not (Sys.file_exists !exe) then fail (Printf.sprintf "scallop CLI not found at %s" !exe);
  let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  let exe = absolute !exe and work = absolute !work in
  try
    match !child with
    | "train" ->
        ignore (Unix.alarm 175);
        Train.child ~seed:!seed ~seconds:!seconds ~n_train:sizes.train_n ~n_test:sizes.train_test
    | "replay" ->
        ignore (Unix.alarm 175);
        Serve_load.mkdir_p work;
        replay_main ~sizes ~workload:!workload ~seed:!seed ~ops:!ops ~traced:!traced
          ~trace_file:!trace_file ~work ~exe
    | "" when !smoke ->
        ignore (Unix.alarm 120);
        let run w =
          let tf = Filename.concat work (Printf.sprintf "smoke-%s.jsonl" w) in
          let ok =
            run_one ~sizes ~self ~exe ~work ~workload:w ~seed:!seed ~seconds:0.3 ~trace:(Some tf)
              ~smoke:true
          in
          Serve_load.rm_rf tf;
          ok
        in
        if not (List.for_all run workloads) then exit 1
    | "" when !repeat > 0 ->
        let names = if !workload = "" then workloads else [ !workload ] in
        repeat_main ~self ~exe ~work ~names ~n:!repeat ~seed:!seed ~seconds:!seconds
    | "" ->
        if not (List.mem !workload workloads) then
          fail (Printf.sprintf "--workload must be one of %s" (String.concat ", " workloads));
        ignore (Unix.alarm 175);
        let trace =
          match !trace with
          | "0" -> None
          | "1" -> Some (Filename.concat work (Printf.sprintf "trace-%s.jsonl" !workload))
          | f -> Some (absolute f)
        in
        if
          not
            (run_one ~sizes ~self ~exe ~work ~workload:!workload ~seed:!seed ~seconds:!seconds
               ~trace ~smoke:false)
        then exit 1
    | c -> fail ("unknown --child " ^ c)
  with
  | Client.Died msg -> fail msg
  | Unix.Unix_error (e, f, a) -> fail (Printf.sprintf "%s %s: %s" f a (Unix.error_message e))
  | Sys_error msg -> fail msg
