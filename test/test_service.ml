(** The supervised inference service runtime ({!Scallop_serve.Service}):

    - {!Scallop_serve.Breaker} state machine on a manually driven clock
      (closed → open → half-open → closed, re-open on probe failure);
    - bit-identical equivalence of [Service.submit]/[await] with
      [Session.run_batch] when chaos is off (incl. samplers drawing from
      per-request RNG substreams);
    - admission control: bounded queue sheds with a typed [Overloaded];
    - watchdog supervision: chaos-killed workers are detected, respawned,
      and the in-flight request requeued against its retry budget, with
      [Worker_lost] only after that is exhausted (requeue-once semantics);
    - circuit breaker at the service level (injectable clock): consecutive
      budget faults open rung 0, requests skip straight to the cheaper
      rung, and a successful half-open probe restores fidelity;
    - executions submitted with [submit_exec] run at rung 0 only: their
      budget failures walk no ladder and open no breaker;
    - transient retry with backoff (chaos NaN poisoning caught by the
      finiteness guardrail);
    - per-request deadline propagation (queue wait and stalls burn it);
    - shutdown with dead workers: every request still gets a terminal
      outcome and every spawned domain is joined (no leaks);
    - domain accounting: [jobs = n] spawns exactly [n] domains, the
      watchdog being a thread on the creating domain. *)

open Scallop_core
open Scallop_serve
module Rng = Scallop_utils.Rng

let check = Alcotest.check

(* ---- Breaker state machine (manual clock) ---------------------------------------- *)

let test_breaker_transitions () =
  let t = ref 0.0 in
  let b = Breaker.create ~threshold:3 ~cooldown:10.0 ~now:(fun () -> !t) () in
  check Alcotest.string "starts closed" "closed" (Breaker.state_name b);
  Alcotest.(check bool) "closed admits" true (Breaker.admit b);
  (* a success resets the consecutive-failure streak *)
  Breaker.record_failure b;
  Breaker.record_failure b;
  Breaker.record_success b;
  Breaker.record_failure b;
  Breaker.record_failure b;
  check Alcotest.string "streak broken: still closed" "closed" (Breaker.state_name b);
  Breaker.record_failure b;
  check Alcotest.string "3 consecutive failures open it" "open" (Breaker.state_name b);
  Alcotest.(check bool) "open refuses" false (Breaker.admit b);
  check Alcotest.int "one trip counted" 1 (Breaker.opens b);
  t := 9.9;
  Alcotest.(check bool) "still cooling down" false (Breaker.admit b);
  t := 10.0;
  Alcotest.(check bool) "cooldown over: half-open admits a probe" true (Breaker.admit b);
  check Alcotest.string "half-open" "half-open" (Breaker.state_name b);
  (* probe fails: re-open for a fresh cooldown *)
  Breaker.record_failure b;
  check Alcotest.string "probe failure re-opens" "open" (Breaker.state_name b);
  Alcotest.(check bool) "refusing again" false (Breaker.admit b);
  check Alcotest.int "second trip counted" 2 (Breaker.opens b);
  t := 20.5;
  Alcotest.(check bool) "half-open again" true (Breaker.admit b);
  (* probe succeeds: fidelity recovered *)
  Breaker.record_success b;
  check Alcotest.string "probe success closes" "closed" (Breaker.state_name b);
  Alcotest.(check bool) "closed admits again" true (Breaker.admit b)

(* ---- programs & request generators ----------------------------------------------- *)

let graph_src =
  {|type edge(i32, i32)
type node(i32)
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
rel unreachable(b) = node(b), not path(0, b)
rel num_reached(n) = n := count(b: path(0, b))
query path
query unreachable
query num_reached|}

let sampler_src =
  {|type item(i32)
rel picked(x) = x := uniform<3>(i: item(i))
query picked|}

let nodes = 5

let graph_sample data_rng i =
  let rng = Rng.substream data_rng i in
  let edges = ref [] in
  for a = 0 to nodes - 1 do
    for b = 0 to nodes - 1 do
      if a <> b && Rng.float rng < 0.5 then
        edges :=
          ( Provenance.Input.prob (0.05 +. (0.9 *. Rng.float rng)),
            Tuple.of_list [ Value.int Value.I32 a; Value.int Value.I32 b ] )
          :: !edges
    done
  done;
  let node_facts =
    List.init nodes (fun v ->
        ( { Provenance.Input.prob = None; me_group = None },
          Tuple.of_list [ Value.int Value.I32 v ] ))
  in
  [ ("edge", List.rev !edges); ("node", node_facts) ]

let item_sample data_rng i =
  let rng = Rng.substream data_rng i in
  let items =
    List.init 5 (fun v ->
        ( Provenance.Input.prob (0.1 +. (0.8 *. Rng.float rng)),
          Tuple.of_list [ Value.int Value.I32 (v + (10 * i)) ] ))
  in
  [ ("item", items) ]

let trivial_src = "rel p = {(1, 2)}\nquery p"

let result_equal (a : Session.result) (b : Session.result) =
  Stdlib.compare a.Session.outputs b.Session.outputs = 0
  && Stdlib.compare a.Session.fact_ids b.Session.fact_ids = 0

(* ---- chaos off ≡ Session.run_batch ----------------------------------------------- *)

let check_equivalence ~name ~src ~make_sample ~spec =
  let compiled = Session.compile src in
  let data_rng = Rng.create 99 in
  let batch = Array.init 8 (fun i -> make_sample data_rng i) in
  let interp = { (Interp.default_config ()) with Interp.rng = Rng.create 7 } in
  let reference =
    Session.run_batch ~config:interp
      ~provenance_of:(fun _ -> Registry.create spec)
      compiled batch
  in
  let config =
    { (Service.default_config ()) with Service.jobs = 2; interp; watchdog_interval = None }
  in
  Service.with_service ~config spec (fun svc ->
      (* ticket ids are submission ordinals = batch indices *)
      let tickets = Array.map (fun facts -> Service.submit svc ~facts compiled) batch in
      Array.iteri
        (fun i ticket ->
          let o = Service.await svc ticket in
          check Alcotest.int (Fmt.str "%s: id %d" name i) i (Service.ticket_id ticket);
          Alcotest.(check bool) (Fmt.str "%s: %d not degraded" name i) false o.Service.degraded;
          match (o.Service.response, reference.(i)) with
          | Ok got, Ok expected ->
              if not (result_equal expected got) then
                Alcotest.failf "%s: request %d diverges from run_batch" name i
          | Error e, _ ->
              Alcotest.failf "%s: request %d failed: %s" name i (Session.error_string e)
          | _, Error e ->
              Alcotest.failf "%s: reference %d failed: %s" name i (Session.error_string e))
        tickets)

let test_equivalence_graph () =
  check_equivalence ~name:"graph" ~src:graph_src ~make_sample:graph_sample
    ~spec:(Registry.Top_k_proofs 3)

let test_equivalence_sampler () =
  check_equivalence ~name:"sampler" ~src:sampler_src ~make_sample:item_sample
    ~spec:Registry.Max_min_prob

(* ---- admission control ------------------------------------------------------------ *)

let test_admission_sheds () =
  let compiled = Session.compile trivial_src in
  let config =
    {
      (Service.default_config ()) with
      Service.jobs = 1;
      queue_depth = 2;
      watchdog_interval = None;
      chaos = { Chaos.none with Chaos.latency_prob = 1.0; latency = 0.15 };
    }
  in
  Service.with_service ~config Registry.Boolean (fun svc ->
      let tickets = Array.init 5 (fun _ -> Service.submit svc compiled) in
      let outcomes = Array.map (fun t -> Service.await svc t) tickets in
      let shed, served =
        Array.fold_left
          (fun (shed, served) (o : Service.outcome) ->
            match o.Service.response with
            | Error (Exec_error.Overloaded _) -> (shed + 1, served)
            | Ok _ -> (shed, served + 1)
            | Error e -> Alcotest.failf "unexpected error: %s" (Session.error_string e))
          (0, 0) outcomes
      in
      (* worker holds one, queue holds two: at least two of five are shed
         (exact counts depend on how fast the worker claims the first) *)
      if shed < 2 then Alcotest.failf "expected >= 2 shed, got %d" shed;
      check Alcotest.int "every request got exactly one terminal outcome" 5 (shed + served);
      let s = Service.stats svc in
      check Alcotest.int "shed counter" shed s.Service.shed;
      check Alcotest.int "completed counter" 5 s.Service.completed;
      (* a shed outcome is transient: a client may retry it *)
      Array.iter
        (fun (o : Service.outcome) ->
          match o.Service.response with
          | Error (Exec_error.Overloaded _ as e) ->
              Alcotest.(check bool) "Overloaded is transient" true (Exec_error.is_transient e)
          | _ -> ())
        outcomes)

(* ---- watchdog: kill, respawn, requeue-once --------------------------------------- *)

let test_watchdog_kill_respawn () =
  let compiled = Session.compile trivial_src in
  let config =
    {
      (Service.default_config ()) with
      Service.jobs = 1;
      max_retries = 2;
      watchdog_interval = Some 0.005;
      heartbeat_timeout = 0.2;
      lost_grace = 0.1;
      chaos = { Chaos.none with Chaos.kill_prob = 1.0 };
    }
  in
  let svc = Service.create ~config Registry.Boolean in
  Fun.protect
    ~finally:(fun () -> Service.shutdown svc)
    (fun () ->
      let t = Service.submit svc compiled in
      let o = Service.await svc t in
      (match o.Service.response with
      | Error (Exec_error.Worker_lost { attempts; _ } as e) ->
          check Alcotest.int "three attempts (1 + 2 retries)" 3 attempts;
          Alcotest.(check bool) "Worker_lost is transient" true (Exec_error.is_transient e)
      | Error e -> Alcotest.failf "wrong error: %s" (Session.error_string e)
      | Ok _ -> Alcotest.fail "request served despite kill_prob = 1");
      check Alcotest.int "requeued once per loss, against the retry budget" 2
        o.Service.requeues;
      let s = Service.stats svc in
      if s.Service.workers_lost < 3 then
        Alcotest.failf "expected 3 lost workers, got %d" s.Service.workers_lost;
      if s.Service.respawns < 3 then
        Alcotest.failf "expected 3 respawns, got %d" s.Service.respawns;
      (* the replacement worker serves once the chaos stops *)
      Service.set_chaos svc Chaos.none;
      let t2 = Service.submit svc compiled in
      match (Service.await svc t2).Service.response with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "respawned worker failed: %s" (Session.error_string e));
  let s = Service.stats svc in
  check Alcotest.int "domains = the worker plus its replacements" (1 + s.Service.respawns)
    s.Service.domains_spawned;
  check Alcotest.int "every spawned domain was joined" s.Service.domains_spawned
    s.Service.domains_joined

(* ---- domain accounting: one domain per worker, the watchdog is a thread ---------- *)

let test_one_domain_per_worker () =
  let compiled = Session.compile trivial_src in
  List.iter
    (fun jobs ->
      let config =
        { (Service.default_config ()) with Service.jobs; watchdog_interval = Some 0.005 }
      in
      let svc = Service.create ~config Registry.Boolean in
      check Alcotest.int (Fmt.str "jobs=%d: domains spawned" jobs) jobs
        (Service.stats svc).Service.domains_spawned;
      (match (Service.await svc (Service.submit svc compiled)).Service.response with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "jobs=%d: %s" jobs (Session.error_string e));
      Service.shutdown svc;
      let s = Service.stats svc in
      check Alcotest.int (Fmt.str "jobs=%d: still no respawns" jobs) 0 s.Service.respawns;
      check Alcotest.int (Fmt.str "jobs=%d: domains spawned after shutdown" jobs) jobs
        s.Service.domains_spawned;
      check Alcotest.int (Fmt.str "jobs=%d: domains joined" jobs) jobs
        s.Service.domains_joined)
    [ 1; 3 ]

(* ---- circuit breaker at the service level (injectable clock) --------------------- *)

let test_service_breaker_degrades_and_recovers () =
  let compiled = Session.compile trivial_src in
  let clock = ref 0.0 in
  let config =
    {
      (Service.default_config ()) with
      Service.jobs = 1;
      max_retries = 0;
      breaker_threshold = 2;
      breaker_cooldown = 10.0;
      watchdog_interval = None;
      now = (fun () -> !clock);
      chaos = { Chaos.none with Chaos.budget_fault_prob = 1.0 };
    }
  in
  (* ladder: topkproofs-1 → minmaxprob *)
  Service.with_service ~config (Registry.Top_k_proofs 1) (fun svc ->
      check
        Alcotest.(list string)
        "ladder has two rungs"
        [ "topkproofs-1"; "minmaxprob" ]
        (List.map Registry.spec_name (Service.ladder svc));
      let run () = Service.await svc (Service.submit svc compiled) in
      (* two requests: each fails at both rungs, opening both breakers *)
      let o1 = run () in
      check Alcotest.int "request 1 tried both rungs" 2 o1.Service.attempts;
      (match o1.Service.response with
      | Error (Exec_error.Budget_exceeded _) -> ()
      | _ -> Alcotest.fail "expected Budget_exceeded");
      let (_ : Service.outcome) = run () in
      check
        Alcotest.(list string)
        "both breakers open after 2 consecutive failures"
        [ "open"; "open" ]
        (Service.breaker_states svc);
      (* rung 0 is skipped without paying for the attempt; the last rung
         always serves (and still faults) *)
      let o3 = run () in
      check Alcotest.int "request 3 skipped the open rung" 1 o3.Service.attempts;
      check Alcotest.string "served at the cheap rung" "minmaxprob"
        (Registry.spec_name o3.Service.rung);
      Alcotest.(check bool) "degraded" true o3.Service.degraded;
      (* cooldown elapses on the injected clock; the half-open probe runs
         at full fidelity again and closes the breaker *)
      Service.set_chaos svc Chaos.none;
      clock := 11.0;
      let o4 = run () in
      (match o4.Service.response with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "probe failed: %s" (Session.error_string e));
      check Alcotest.string "full fidelity restored" "topkproofs-1"
        (Registry.spec_name o4.Service.rung);
      Alcotest.(check bool) "not degraded" false o4.Service.degraded;
      check Alcotest.string "rung-0 breaker closed again" "closed"
        (List.hd (Service.breaker_states svc));
      let s = Service.stats svc in
      if s.Service.breaker_opens < 2 then
        Alcotest.failf "expected >= 2 breaker opens, got %d" s.Service.breaker_opens)

(* An execution submitted with [submit_exec] (a session query pins its own
   provenance and ignores the rung) runs at rung 0 only: its budget
   failures neither walk the ladder nor open a breaker, so they cannot
   degrade the one-shot queries that follow. *)
let test_exec_stays_off_the_ladder () =
  let chain =
    Session.compile
      {|type edge(i32, i32)
rel path(a, b) = edge(a, b)
rel path(a, c) = path(a, b), edge(b, c)
query path|}
  in
  let facts =
    [
      ( "edge",
        List.init 20 (fun i ->
            ( Provenance.Input.none,
              Tuple.of_list [ Value.int Value.I32 i; Value.int Value.I32 (i + 1) ] )) );
    ]
  in
  let config =
    {
      (Service.default_config ()) with
      Service.jobs = 1;
      max_retries = 0;
      breaker_threshold = 2;
      watchdog_interval = None;
      interp = { (Interp.default_config ()) with Interp.budget = Budget.make ~max_iterations:5 () };
    }
  in
  Service.with_service ~config (Registry.Top_k_proofs 3) (fun svc ->
      for i = 1 to 3 do
        let o =
          Service.await svc
            (Service.submit_exec svc (fun ~rung:_ ~config ->
                 Session.run ~config ~provenance:(Registry.create Registry.Boolean) chain ~facts
                   ()))
        in
        (match o.Service.response with
        | Error (Exec_error.Budget_exceeded _) -> ()
        | _ -> Alcotest.failf "exec %d: expected Budget_exceeded" i);
        check Alcotest.string (Fmt.str "exec %d reports rung 0" i) "topkproofs-3"
          (Registry.spec_name o.Service.rung);
        check Alcotest.int (Fmt.str "exec %d ran once" i) 1 o.Service.attempts;
        Alcotest.(check bool) (Fmt.str "exec %d not degraded" i) false o.Service.degraded
      done;
      check Alcotest.string "rung-0 breaker still closed" "closed"
        (List.hd (Service.breaker_states svc));
      let o = Service.await svc (Service.submit svc (Session.compile trivial_src)) in
      (match o.Service.response with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "one-shot failed: %s" (Session.error_string e));
      check Alcotest.string "one-shot at full fidelity" "topkproofs-3"
        (Registry.spec_name o.Service.rung);
      Alcotest.(check bool) "one-shot not degraded" false o.Service.degraded;
      let s = Service.stats svc in
      check Alcotest.int "no breaker opened" 0 s.Service.breaker_opens;
      check Alcotest.int "nothing degraded" 0 s.Service.degraded)

(* ---- transient retry with backoff (NaN guardrail) -------------------------------- *)

let test_nan_retry_then_exhaust () =
  let compiled = Session.compile trivial_src in
  let config =
    {
      (Service.default_config ()) with
      Service.jobs = 1;
      max_retries = 2;
      backoff_base = 0.001;
      backoff_cap = 0.01;
      watchdog_interval = None;
      chaos = { Chaos.none with Chaos.nan_prob = 1.0 };
    }
  in
  Service.with_service ~config Registry.Max_min_prob (fun svc ->
      let o = Service.await svc (Service.submit svc compiled) in
      (match o.Service.response with
      | Error (Exec_error.Non_finite _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Session.error_string e)
      | Ok _ -> Alcotest.fail "poisoned result served");
      check Alcotest.int "three attempts" 3 o.Service.attempts;
      check Alcotest.int "two transient retries" 2 o.Service.retries;
      let s = Service.stats svc in
      check Alcotest.int "chaos nans counted" 3 s.Service.chaos_nans;
      (* without chaos the same request serves *)
      Service.set_chaos svc Chaos.none;
      match (Service.await svc (Service.submit svc compiled)).Service.response with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "clean request failed: %s" (Session.error_string e))

(* ---- deadline propagation --------------------------------------------------------- *)

let test_deadline_propagation () =
  let compiled = Session.compile trivial_src in
  let config =
    {
      (Service.default_config ()) with
      Service.jobs = 1;
      max_retries = 0;
      request_timeout = Some 0.1;
      watchdog_interval = None;
      chaos = { Chaos.none with Chaos.latency_prob = 1.0; latency = 0.25 };
    }
  in
  Service.with_service ~config Registry.Boolean (fun svc ->
      let t1 = Service.submit svc compiled in
      let t2 = Service.submit svc compiled in
      (* request 1: the stall burns its whole deadline before the run *)
      (match (Service.await svc t1).Service.response with
      | Error (Exec_error.Budget_exceeded { kind = Exec_error.Deadline; _ }) -> ()
      | Error e -> Alcotest.failf "request 1: wrong error: %s" (Session.error_string e)
      | Ok _ -> Alcotest.fail "request 1 served past its deadline");
      (* request 2: queue wait alone exceeded the deadline — rejected at the
         pre-attempt check, before any execution *)
      let o2 = Service.await svc t2 in
      (match o2.Service.response with
      | Error (Exec_error.Budget_exceeded { kind = Exec_error.Deadline; stratum = -1; _ }) -> ()
      | Error e -> Alcotest.failf "request 2: wrong error: %s" (Session.error_string e)
      | Ok _ -> Alcotest.fail "request 2 served past its deadline");
      check Alcotest.int "request 2 never executed" 0 o2.Service.attempts)

(* ---- shutdown with dead workers: no hangs, no leaks ------------------------------- *)

let test_shutdown_without_watchdog_fails_leftovers () =
  let compiled = Session.compile trivial_src in
  let config =
    {
      (Service.default_config ()) with
      Service.jobs = 1;
      watchdog_interval = None;
      (* no watchdog: a dead worker stays dead *)
      chaos = { Chaos.none with Chaos.kill_prob = 1.0 };
    }
  in
  let svc = Service.create ~config Registry.Boolean in
  let t1 = Service.submit svc compiled in
  let t2 = Service.submit svc compiled in
  (* give the worker time to claim t1 and die on it *)
  Unix.sleepf 0.05;
  Service.shutdown svc;
  List.iter
    (fun t ->
      match Service.poll svc t with
      | None -> Alcotest.fail "request left without a terminal outcome"
      | Some (o : Service.outcome) -> (
          match o.Service.response with
          | Error (Exec_error.Cancelled _ | Exec_error.Worker_lost _) -> ()
          | Error e -> Alcotest.failf "unexpected error: %s" (Session.error_string e)
          | Ok _ -> Alcotest.fail "served by a dead worker"))
    [ t1; t2 ];
  let s = Service.stats svc in
  check Alcotest.int "every spawned domain was joined" s.Service.domains_spawned
    s.Service.domains_joined;
  (* submissions after shutdown are shed, not hung *)
  match (Service.poll svc (Service.submit svc compiled) : Service.outcome option) with
  | Some { Service.response = Error (Exec_error.Overloaded _); _ } -> ()
  | _ -> Alcotest.fail "post-shutdown submit should shed immediately"

(* ---- chaos decisions are pure in (seed, ordinal) ---------------------------------- *)

let test_chaos_decisions_reproducible () =
  let c =
    {
      Chaos.kill_prob = 0.3;
      latency_prob = 0.3;
      latency = 0.01;
      budget_fault_prob = 0.3;
      nan_prob = 0.3;
      seed = 42;
    }
  in
  let a = List.init 100 (fun i -> Chaos.decide c ~ordinal:i) in
  let b = List.init 100 (fun i -> Chaos.decide c ~ordinal:i) in
  Alcotest.(check bool) "same seed, same faults" true (a = b);
  let hits = List.filter (fun (d : Chaos.decision) -> d.Chaos.kill) a in
  if List.length hits = 0 || List.length hits = 100 then
    Alcotest.fail "kill probability 0.3 should fire sometimes, not never/always";
  Alcotest.(check bool) "chaos off decides nothing" true
    (Chaos.decide Chaos.none ~ordinal:5 = Chaos.no_faults)

let suite =
  [
    Alcotest.test_case "breaker: closed/open/half-open transitions" `Quick
      test_breaker_transitions;
    Alcotest.test_case "chaos off: submit ≡ run_batch (graph)" `Quick test_equivalence_graph;
    Alcotest.test_case "chaos off: submit ≡ run_batch (sampler)" `Quick
      test_equivalence_sampler;
    Alcotest.test_case "admission: bounded queue sheds Overloaded" `Quick test_admission_sheds;
    Alcotest.test_case "watchdog: kill, respawn, requeue-once" `Quick
      test_watchdog_kill_respawn;
    Alcotest.test_case "one domain per worker, watchdog is a thread" `Quick
      test_one_domain_per_worker;
    Alcotest.test_case "breaker: service degrades and recovers" `Quick
      test_service_breaker_degrades_and_recovers;
    Alcotest.test_case "transient retry: NaN guardrail" `Quick test_nan_retry_then_exhaust;
    Alcotest.test_case "deadline propagation" `Quick test_deadline_propagation;
    Alcotest.test_case "shutdown: leftovers failed, domains joined" `Quick
      test_shutdown_without_watchdog_fails_leftovers;
    Alcotest.test_case "chaos: reproducible decisions" `Quick test_chaos_decisions_reproducible;
    Alcotest.test_case "exec tickets stay off the degradation ladder" `Quick
      test_exec_stays_off_the_ladder;
  ]
