(** Golden tests for the typed diagnostics ([Exec_error.t]): each failure
    class must surface as the documented constructor AND render to the
    documented string, both from the library API and (for the per-file
    error policy) from the installed CLI binary. *)

open Scallop_core

let check = Alcotest.check

let divergent_src = "type seed(i32)\nrel n(x) = seed(x)\nrel n(x + 1) = n(x)\nquery n"

let seed_facts =
  [ ("seed", [ (Provenance.Input.none, Tuple.of_list [ Value.int Value.I32 0 ]) ]) ]

let config_of budget = { (Interp.default_config ()) with Interp.budget }

let run_divergent budget =
  let c = Session.compile divergent_src in
  try
    ignore
      (Session.run ~config:(config_of budget) ~provenance:(Registry.create Registry.Boolean) c
         ~facts:seed_facts ());
    Alcotest.fail "divergent program terminated"
  with Session.Error e -> e

(* ---- golden constructors and messages -------------------------------------- *)

let test_unstratifiable () =
  let src = "type e(i32)\nrel p(x) = e(x)\nrel p(x) = e(x), not p(x)\nquery p" in
  match Session.compile src with
  | _ -> Alcotest.fail "unstratifiable program compiled"
  | exception Session.Error e ->
      (match e with
      | Exec_error.Unstratifiable { head = "p"; dep = "p" } -> ()
      | _ -> Alcotest.failf "wrong constructor: %s" (Session.error_string e));
      check Alcotest.string "rendered message"
        "program is not stratified: p depends on p through negation or aggregation within a \
         recursive cycle"
        (Session.error_string e)

let test_type_error () =
  let src = "rel p = {(1)}\nrel q(x) = p(x), x == \"a\"\nquery q" in
  match Session.compile src with
  | _ -> Alcotest.fail "ill-typed program compiled"
  | exception Session.Error e ->
      (match e with
      | Exec_error.Type_error _ -> ()
      | _ -> Alcotest.failf "wrong constructor: %s" (Session.error_string e));
      check Alcotest.string "rendered message" "type error at 1:1: type String is not integer"
        (Session.error_string e)

let test_iteration_limit () =
  let e = run_divergent (Budget.make ~max_iterations:20 ()) in
  (match e with
  | Exec_error.Budget_exceeded { kind = Exec_error.Iterations; stratum = 0; iterations = 20; _ }
    ->
      ()
  | _ -> Alcotest.failf "wrong constructor: %s" (Session.error_string e));
  let msg = Session.error_string e in
  let prefix = "budget exceeded (iterations) in stratum 0 after 20 fixpoint iterations" in
  if not (String.length msg >= String.length prefix && String.sub msg 0 (String.length prefix) = prefix)
  then Alcotest.failf "rendered message %S lacks prefix %S" msg prefix

let test_tuple_limit () =
  match run_divergent { Budget.unlimited with Budget.max_tuples = Some 50 } with
  | Exec_error.Budget_exceeded { kind = Exec_error.Tuples; stratum = 0; _ } -> ()
  | e -> Alcotest.failf "wrong constructor: %s" (Session.error_string e)

let test_node_eval_limit () =
  match run_divergent { Budget.unlimited with Budget.max_node_evals = Some 100 } with
  | Exec_error.Budget_exceeded { kind = Exec_error.Node_evals; stratum = 0; _ } -> ()
  | e -> Alcotest.failf "wrong constructor: %s" (Session.error_string e)

let deadline = 0.3

let test_deadline_sequential () =
  let t0 = Scallop_utils.Monotonic.now () in
  let e = run_divergent { Budget.unlimited with Budget.timeout = Some deadline } in
  let elapsed = Scallop_utils.Monotonic.now () -. t0 in
  (match e with
  | Exec_error.Budget_exceeded { kind = Exec_error.Deadline; stratum = 0; _ } -> ()
  | _ -> Alcotest.failf "wrong constructor: %s" (Session.error_string e));
  if elapsed >= 2.0 *. deadline then
    Alcotest.failf "stopped after %.2fs, more than twice the %.1fs deadline" elapsed deadline

let test_deadline_batch () =
  (* sample 0 diverges and must fail structurally; sample 1 (empty seed) is a
     sibling in the same 2-domain batch and must still complete *)
  let c = Session.compile divergent_src in
  let t0 = Scallop_utils.Monotonic.now () in
  let results =
    Session.run_batch ~jobs:2
      ~config:(config_of { Budget.unlimited with Budget.timeout = Some deadline })
      ~provenance_of:(fun _ -> Registry.create Registry.Boolean)
      c
      [| seed_facts; [ ("seed", []) ] |]
  in
  let elapsed = Scallop_utils.Monotonic.now () -. t0 in
  (match results.(0) with
  | Error (Exec_error.Budget_exceeded { kind = Exec_error.Deadline; _ }) -> ()
  | Error e -> Alcotest.failf "sample 0: wrong error: %s" (Session.error_string e)
  | Ok _ -> Alcotest.fail "sample 0: divergent program terminated");
  (match results.(1) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "sibling sample failed: %s" (Session.error_string e));
  if elapsed >= 2.0 *. deadline then
    Alcotest.failf "batch stopped after %.2fs, more than twice the %.1fs deadline" elapsed
      deadline

let test_cancelled_before_start () =
  let cancel = Scallop_utils.Cancel.create () in
  Scallop_utils.Cancel.cancel cancel;
  let c = Session.compile divergent_src in
  let results =
    Session.run_batch ~jobs:2
      ~config:(config_of { Budget.unlimited with Budget.cancel = Some cancel })
      ~provenance_of:(fun _ -> Registry.create Registry.Boolean)
      c
      [| seed_facts; [ ("seed", []) ] |]
  in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Error (Exec_error.Cancelled { stratum = -1; _ } as e) ->
          check Alcotest.string "rendered message" "execution cancelled before it started"
            (Session.error_string e)
      | Error e -> Alcotest.failf "sample %d: wrong error: %s" i (Session.error_string e)
      | Ok _ -> Alcotest.failf "sample %d ran despite pre-cancelled token" i)
    results

(* ---- service runtime errors and the transient/deterministic split ----------- *)

let test_overloaded_golden () =
  check Alcotest.string "rendered message (plural)"
    "service overloaded: 64 requests queued, oldest waiting 0.250s"
    (Session.error_string (Exec_error.Overloaded { depth = 64; age = 0.25 }));
  check Alcotest.string "rendered message (singular)"
    "service overloaded: 1 request queued, oldest waiting 0.000s"
    (Session.error_string (Exec_error.Overloaded { depth = 1; age = 0.0 }))

let test_worker_lost_golden () =
  check Alcotest.string "rendered message"
    "worker 2 lost while executing the request (attempt 3)"
    (Session.error_string (Exec_error.Worker_lost { worker = 2; attempts = 3 }))

let test_recovery_failed_golden () =
  check Alcotest.string "rendered message"
    "recovery of session s1 failed: corrupt log segment wal-000000003.log at byte 20: \
     checksum mismatch"
    (Session.error_string
       (Exec_error.Recovery_failed
          {
            session = "s1";
            reason = "corrupt log segment wal-000000003.log at byte 20: checksum mismatch";
          }))

let test_replication_goldens () =
  check Alcotest.string "diverged"
    "replica diverged on session s1 in segment 2: checksum chain mismatch"
    (Session.error_string
       (Exec_error.Replication_diverged
          { session = "s1"; segment = 2; reason = "checksum chain mismatch" }));
  check Alcotest.string "fenced" "primary fenced: epoch 1 deposed by epoch 2"
    (Session.error_string (Exec_error.Fenced { epoch = 1; current = 2 }));
  check Alcotest.string "ack timeout (singular)"
    "replication ack timeout: 0/1 follower ack after 5.000s"
    (Session.error_string (Exec_error.Ack_timeout { acked = 0; quorum = 1; waited = 5.0 }));
  check Alcotest.string "ack timeout (plural)"
    "replication ack timeout: 1/2 follower acks after 0.250s"
    (Session.error_string (Exec_error.Ack_timeout { acked = 1; quorum = 2; waited = 0.25 }))

(* A client may safely retry exactly the transient class; everything
   deterministic must not be retried, and only budget exhaustion invites
   degrading to a cheaper provenance. *)
let test_transient_classification () =
  let transient =
    [
      Exec_error.Overloaded { depth = 3; age = 0.1 };
      Exec_error.Worker_lost { worker = 0; attempts = 1 };
      Exec_error.Non_finite { what = "output probabilities of p" };
    ]
  in
  let deterministic =
    [
      Exec_error.Budget_exceeded
        { kind = Exec_error.Deadline; stratum = 0; iterations = 0; elapsed = 0.1 };
      Exec_error.Cancelled { stratum = -1; elapsed = 0.0 };
      Exec_error.Invalid_input { msg = "bad" };
      Exec_error.Runtime_error { msg = "boom" };
      (* a damaged state dir will not heal on retry *)
      Exec_error.Recovery_failed { session = "s"; reason = "corrupt log" };
      (* a forked replica, a deposed primary, an unknown replication level:
         all need operator action, never a blind client retry *)
      Exec_error.Replication_diverged { session = "s"; segment = 1; reason = "chain" };
      Exec_error.Fenced { epoch = 1; current = 2 };
      Exec_error.Ack_timeout { acked = 0; quorum = 1; waited = 5.0 };
    ]
  in
  List.iter
    (fun e ->
      if not (Exec_error.is_transient e) then
        Alcotest.failf "should be transient: %s" (Session.error_string e);
      if Exec_error.is_degradable e then
        Alcotest.failf "transient must not be degradable: %s" (Session.error_string e))
    transient;
  List.iter
    (fun e ->
      if Exec_error.is_transient e then
        Alcotest.failf "should not be transient: %s" (Session.error_string e))
    deterministic;
  Alcotest.(check bool) "budget exhaustion is the degradable class" true
    (Exec_error.is_degradable
       (Exec_error.Budget_exceeded
          { kind = Exec_error.Iterations; stratum = 1; iterations = 7; elapsed = 0.2 }))

(* ---- stateful session protocol errors ---------------------------------------- *)

let incr_src =
  "type edge(i32, i32)\nrel path(a, b) = edge(a, b)\nquery path"

let expect_invalid expected f =
  match f () with
  | _ -> Alcotest.failf "expected Invalid_input %S" expected
  | exception Session.Error e ->
      (match e with
      | Exec_error.Invalid_input _ -> ()
      | _ -> Alcotest.failf "wrong constructor: %s" (Session.error_string e));
      check Alcotest.string "rendered message" expected (Session.error_string e)

let test_incr_retract_never_asserted () =
  let module Incr = Scallop_incr.Incr in
  let t = Incr.open_session ~spec:Registry.Boolean incr_src in
  expect_invalid "retract edge(4, 5): fact was never asserted" (fun () ->
      Incr.retract_fact t ~pred:"edge"
        (Tuple.of_list [ Value.int Value.I32 4; Value.int Value.I32 5 ]))

let test_incr_closed_session () =
  let module Incr = Scallop_incr.Incr in
  let t = Incr.open_session ~spec:Registry.Boolean incr_src in
  Incr.close t;
  expect_invalid "session is closed" (fun () -> Incr.query t);
  expect_invalid "session is closed" (fun () -> Incr.close t)

let test_incr_unknown_relation () =
  let module Incr = Scallop_incr.Incr in
  let t = Incr.open_session ~spec:Registry.Boolean incr_src in
  expect_invalid "assert into unknown relation nope" (fun () ->
      Incr.assert_fact t ~pred:"nope" (Tuple.of_list [ Value.int Value.I32 0 ]))

let test_incr_hash_mismatch () =
  let module Incr = Scallop_incr.Incr in
  let actual = Session.source_hash incr_src in
  expect_invalid
    (Fmt.str "program hash mismatch: expected deadbeefdeadbeef, source hashes to %s" actual)
    (fun () ->
      Incr.open_session ~spec:Registry.Boolean ~expect_hash:"deadbeefdeadbeef" incr_src)

(* The serve protocol renders the same typed errors as replies, never as a
   process failure: exit status stays 0 and each misuse gets its own
   [done <id> error <msg>] line. *)
let test_cli_serve_protocol_errors () =
  let dir = Filename.temp_file "scallop_serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path name = Filename.concat dir name in
  Out_channel.with_open_text (path "in.txt") (fun oc ->
      output_string oc
        ("open s1 type edge(i32, i32); rel path(a, b) = edge(a, b); query path\n"
       ^ "retract s1 edge(4, 5)\n" ^ "query nosuch\n" ^ "open s1 rel p = {(1)}\n"
       ^ "close s1\n" ^ "query s1\n"));
  let cmd =
    Fmt.str "../bin/scallop.exe serve < %s > %s 2> %s"
      (Filename.quote (path "in.txt"))
      (Filename.quote (path "out.txt"))
      (Filename.quote (path "err.txt"))
  in
  let code = Sys.command cmd in
  let lines =
    In_channel.with_open_text (path "out.txt") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> not (String.equal l ""))
  in
  Array.iter (fun f -> Sys.remove (path f)) (Sys.readdir dir);
  Sys.rmdir dir;
  check Alcotest.int "protocol errors are replies, not failures" 0 code;
  let golden =
    [
      "done 1 error retract edge(4, 5): fact was never asserted";
      "done 2 error unknown session nosuch";
      "done 3 error session s1 already open";
      "done 5 error rung=boolean attempts=1 session is closed";
    ]
  in
  List.iter
    (fun g ->
      if not (List.exists (String.equal g) lines) then
        Alcotest.failf "missing golden reply %S in %a" g Fmt.(Dump.list string) lines)
    golden

(* An integer literal past the host int range is a typed parse error, not
   an exception escaping the front end. *)
let test_literal_out_of_range () =
  match Session.compile "rel e = {99999999999999999999}\nquery e" with
  | _ -> Alcotest.fail "out-of-range literal compiled"
  | exception Session.Error e ->
      (match e with
      | Exec_error.Parse_error _ -> ()
      | _ -> Alcotest.failf "wrong constructor: %s" (Session.error_string e));
      check Alcotest.string "rendered message"
        "parse error at 1:10: integer literal 99999999999999999999 out of range"
        (Session.error_string e)

(* A fact or rule tag must be a number in [0, 1]: program text gets the
   same check as serve's [assert], as a type error at the fact's (or the
   rule's) position. *)
let test_tag_out_of_range () =
  let expect_type_error src expected =
    match Session.compile src with
    | _ -> Alcotest.failf "compiled despite a bad tag: %S" src
    | exception Session.Error e ->
        (match e with
        | Exec_error.Type_error _ -> ()
        | _ -> Alcotest.failf "wrong constructor: %s" (Session.error_string e));
        check Alcotest.string "rendered message" expected (Session.error_string e)
  in
  let rule = "\nrel p(a, c) = e(a, b), e(b, c)\nquery p" in
  expect_type_error
    ("rel e = {1.5::(1, 2), 0.5::(2, 3), 1e400::(3, 4)}" ^ rule)
    "type error at 1:1: probability 1.5 is not a number in [0, 1]";
  expect_type_error
    ("rel e = {0.5::(2, 3)}\n  rel e = {1e400::(3, 4)}" ^ rule)
    "type error at 2:3: probability inf is not a number in [0, 1]";
  expect_type_error ("rel 2::e(1, 2)" ^ rule)
    "type error at 1:1: probability 2 is not a number in [0, 1]";
  expect_type_error "rel e = {(1, 2)}\nrel 1.01::p(a, b) = e(a, b)\nquery p"
    "type error at 2:1: probability 1.01 is not a number in [0, 1]"

(* A one-shot serve line with such a literal gets an error reply, and the
   next line is still answered. *)
let test_cli_serve_literal_out_of_range () =
  let dir = Filename.temp_file "scallop_serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path name = Filename.concat dir name in
  Out_channel.with_open_text (path "in.txt") (fun oc ->
      output_string oc "rel e = {99999999999999999999};query e\nrel p = {(1, 2)};query p\n");
  let cmd =
    Fmt.str "../bin/scallop.exe serve < %s > %s 2> %s"
      (Filename.quote (path "in.txt"))
      (Filename.quote (path "out.txt"))
      (Filename.quote (path "err.txt"))
  in
  let code = Sys.command cmd in
  let lines =
    In_channel.with_open_text (path "out.txt") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> not (String.equal l ""))
  in
  Array.iter (fun f -> Sys.remove (path f)) (Sys.readdir dir);
  Sys.rmdir dir;
  check Alcotest.int "serve exits cleanly" 0 code;
  match lines with
  | [ err; out; done_ ] ->
      check Alcotest.string "typed error reply"
        "done 0 error compile parse error at 1:10: integer literal 99999999999999999999 out of \
         range"
        err;
      check Alcotest.string "next line answered" "out 1 true::p(1, 2)" out;
      if not (String.starts_with ~prefix:"done 1 ok " done_) then
        Alcotest.failf "next line not completed: %S" done_
  | _ -> Alcotest.failf "unexpected replies %a" Fmt.(Dump.list string) lines

(* ---- CLI per-file error policy ---------------------------------------------- *)

(* One bad file and one good file: the run must exit nonzero, report the bad
   file on stderr, and still print the good file's outputs. *)
let test_cli_per_file_errors () =
  let dir = Filename.temp_file "scallop_cli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let write name contents =
    let path = Filename.concat dir name in
    Out_channel.with_open_text path (fun oc -> output_string oc contents);
    path
  in
  let bad = write "bad.scl" "rel p(x) = \n  = q(x)\n" in
  let good = write "good.scl" "rel e = {(1, 2)}\nrel p(x, y) = e(x, y)\nquery p\n" in
  let out = Filename.concat dir "out.txt" in
  let err = Filename.concat dir "err.txt" in
  let cmd =
    Fmt.str "../bin/scallop.exe run %s %s > %s 2> %s" (Filename.quote bad)
      (Filename.quote good) (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let slurp path = In_channel.with_open_text path In_channel.input_all in
  let stdout_text = slurp out in
  let stderr_text = slurp err in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  if code = 0 then Alcotest.fail "exit code was 0 despite a failing file";
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  if not (contains stderr_text "bad.scl") then
    Alcotest.failf "stderr does not name the bad file: %S" stderr_text;
  if not (contains stderr_text "parse error") then
    Alcotest.failf "stderr lacks the typed parse error: %S" stderr_text;
  if not (contains stdout_text "p(1, 2)") then
    Alcotest.failf "good file's output missing from stdout: %S" stdout_text

(* Facts of two arities for a predicate the program does not declare (a
   declared one is checked against its type first): a typed input error,
   not an exception out of the executor. *)
let test_undeclared_arity_mismatch () =
  let c = Session.compile "type r(i32)\nrel q(x) = r(x)\nquery q" in
  let i n = Value.int Value.I32 n in
  let facts = [ ("u", [ (Provenance.Input.none, [| i 1; i 2 |]); (Provenance.Input.none, [| i 3 |]) ]) ] in
  expect_invalid "arity mismatch for u: expected 2" (fun () ->
      Session.run ~provenance:(Registry.create Registry.Boolean) c ~facts ~outputs:[ "u" ] ())

let suite =
  [
    Alcotest.test_case "unstratifiable: constructor and message" `Quick test_unstratifiable;
    Alcotest.test_case "type error: constructor and message" `Quick test_type_error;
    Alcotest.test_case "iteration limit: constructor and message" `Quick test_iteration_limit;
    Alcotest.test_case "tuple limit: constructor" `Quick test_tuple_limit;
    Alcotest.test_case "node-eval limit: constructor" `Quick test_node_eval_limit;
    Alcotest.test_case "deadline: sequential, within 2x" `Quick test_deadline_sequential;
    Alcotest.test_case "deadline: batch jobs=2, sibling survives" `Quick test_deadline_batch;
    Alcotest.test_case "cancellation before start" `Quick test_cancelled_before_start;
    Alcotest.test_case "overloaded: rendered message" `Quick test_overloaded_golden;
    Alcotest.test_case "worker lost: rendered message" `Quick test_worker_lost_golden;
    Alcotest.test_case "recovery failed: rendered message" `Quick test_recovery_failed_golden;
    Alcotest.test_case "replication errors: rendered messages" `Quick test_replication_goldens;
    Alcotest.test_case "transient vs deterministic classification" `Quick
      test_transient_classification;
    Alcotest.test_case "CLI: per-file errors, nonzero exit at end" `Quick
      test_cli_per_file_errors;
    Alcotest.test_case "incr: retract never asserted" `Quick test_incr_retract_never_asserted;
    Alcotest.test_case "incr: closed session" `Quick test_incr_closed_session;
    Alcotest.test_case "incr: unknown relation" `Quick test_incr_unknown_relation;
    Alcotest.test_case "incr: hash mismatch" `Quick test_incr_hash_mismatch;
    Alcotest.test_case "CLI serve: protocol errors are typed replies" `Quick
      test_cli_serve_protocol_errors;
    Alcotest.test_case "literal out of range: parse error" `Quick test_literal_out_of_range;
    Alcotest.test_case "CLI serve: out-of-range literal is a reply" `Quick
      test_cli_serve_literal_out_of_range;
    Alcotest.test_case "tag outside [0, 1]: type error at the fact" `Quick test_tag_out_of_range;
    Alcotest.test_case "undeclared relation, two arities: invalid input" `Quick
      test_undeclared_arity_mismatch;
  ]
