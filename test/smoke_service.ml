(** Service chaos smoke, run by [dune build @smoke]: the inference service
    must answer {e every} submitted request with exactly one terminal reply
    while workers are being killed and stalled under it.

    Two layers are soaked:

    - {b library}: 50 requests through {!Scallop_serve.Service} under 10%
      injected worker kills plus 10% latency; every ticket must reach a
      terminal outcome, the only domains spawned are the workers and their
      replacements, and after shutdown every one must have been joined (no
      leaks);
    - {b CLI}: 50 request lines piped through [scallop serve] under the
      same chaos; the process must print exactly one [done <id> ...] status
      line per request and exit 0 (per-request failures are replies, not a
      process failure).

    Exits nonzero on any missing reply, leaked domain, or serve failure. *)

open Scallop_core
open Scallop_serve
module Rng = Scallop_utils.Rng

let requests = 50
let failures = ref 0

let fail fmt = Fmt.kstr (fun m -> incr failures; Fmt.epr "smoke: %s@." m) fmt

let chaos =
  {
    Chaos.kill_prob = 0.1;
    latency_prob = 0.1;
    latency = 0.01;
    budget_fault_prob = 0.0;
    nan_prob = 0.0;
    seed = 7;
  }

(* ---- library soak ----------------------------------------------------------- *)

let src =
  {|type edge(i32, i32)
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
rel n_path(n) = n := count(p: path(0, p))
query n_path|}

let sample data_rng i =
  let rng = Rng.substream data_rng i in
  let edges = ref [] in
  for a = 0 to 5 do
    for b = 0 to 5 do
      if a <> b && Rng.float rng < 0.4 then
        edges :=
          ( Provenance.Input.prob (0.05 +. (0.9 *. Rng.float rng)),
            Tuple.of_list [ Value.int Value.I32 a; Value.int Value.I32 b ] )
          :: !edges
    done
  done;
  [ ("edge", List.rev !edges) ]

let library_soak () =
  let compiled = Session.compile src in
  let data_rng = Rng.create 11 in
  let config =
    {
      (Service.default_config ()) with
      Service.jobs = 2;
      queue_depth = requests;
      max_retries = 2;
      backoff_base = 0.001;
      backoff_cap = 0.01;
      watchdog_interval = Some 0.01;
      heartbeat_timeout = 5.0;
      chaos;
    }
  in
  let svc = Service.create ~config Registry.Max_min_prob in
  let tickets =
    Array.init requests (fun i -> Service.submit svc ~facts:(sample data_rng i) compiled)
  in
  let ok = ref 0 and err = ref 0 in
  Array.iteri
    (fun i t ->
      match (Service.await svc t).Service.response with
      | Ok _ -> incr ok
      | Error (Exec_error.Worker_lost _ | Exec_error.Non_finite _ | Exec_error.Overloaded _)
        ->
          incr err
      | Error e -> fail "request %d: unexpected error class: %s" i (Session.error_string e))
    tickets;
  Service.shutdown svc;
  let s = Service.stats svc in
  if !ok + !err <> requests then
    fail "library soak: %d/%d terminal outcomes" (!ok + !err) requests;
  if s.Service.completed <> requests then
    fail "library soak: completed counter %d <> %d" s.Service.completed requests;
  if s.Service.domains_spawned <> config.Service.jobs + s.Service.respawns then
    fail "library soak: %d domains spawned for %d workers and %d respawns"
      s.Service.domains_spawned config.Service.jobs s.Service.respawns;
  if s.Service.domains_spawned <> s.Service.domains_joined then
    fail "library soak: %d domains spawned but %d joined" s.Service.domains_spawned
      s.Service.domains_joined;
  Fmt.pr
    "smoke: service library soak %d/%d answered (ok=%d transient-failed=%d kills=%d \
     stalls=%d respawns=%d)@."
    (!ok + !err) requests !ok !err s.Service.chaos_kills s.Service.chaos_stalls
    s.Service.respawns

(* ---- CLI soak: the same contract through [scallop serve] -------------------- *)

let cli_soak () =
  let cmd =
    "../bin/scallop.exe serve -p minmaxprob --jobs 2 --max-retries 2 --chaos-seed 7 \
     --chaos-kill 0.1 --chaos-latency 0.1 --chaos-latency-secs 0.01 2>/dev/null"
  in
  let out, into = Unix.open_process cmd in
  for i = 0 to requests - 1 do
    Printf.fprintf into "rel p = {(%d, %d)};query p\n" i (i + 1)
  done;
  close_out into;
  let done_lines = ref 0 and lines = ref [] in
  (try
     while true do
       let line = input_line out in
       lines := line :: !lines;
       if String.length line >= 5 && String.sub line 0 5 = "done " then incr done_lines
     done
   with End_of_file -> ());
  let status = Unix.close_process (out, into) in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "scallop serve exited %d" n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail "scallop serve killed by signal %d" n);
  if !done_lines <> requests then
    fail "cli soak: %d done-lines for %d requests" !done_lines requests;
  Fmt.pr "smoke: scallop serve answered %d/%d requests under chaos@." !done_lines requests

let () =
  library_soak ();
  cli_soak ();
  if !failures > 0 then exit 1
