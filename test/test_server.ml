(** The serve request loop in process ({!Scallop_serve.Server}):

    - [scallop serve] and a [Server] replying into a buffer answer the same
      script with the same bytes;
    - a query answers the writes sent before it and none after, and a
      write or a close does not wait for the session's running queries;
    - every request gets exactly one [done] line, in request order, after
      its [out] rows;
    - quoted strings holding [,] and [::] go through assert, query and
      retract, and a rejected probability leaves the session's answer
      unchanged;
    - a quorum write's [handle], a close's included, returns at its
      commit, and its [ok] is printed only once the follower applied it,
      in request order; a failed acknowledgement answers in its place;
    - once [queue_depth] writes are owed an acknowledgement, [handle]
      waits for the oldest before it commits another;
    - a follower promotes itself once its primary's heartbeat is stale,
      and not while it is fresh. *)

open Scallop_core
open Scallop_serve
module Durable = Scallop_incr.Durable
module Replica = Scallop_incr.Replica
module Wal = Scallop_utils.Wal

(* A server wired as [scallop serve -p minmaxprob] wires it with default
   flags ([chaos] and [jobs] aside), fed [feed] and closed; the bytes it
   replied. *)
let serve ?(chaos = Chaos.none) ?(jobs = 1) feed =
  let interp = Interp.default_config () in
  let spec = Registry.Max_min_prob in
  let config = { (Service.default_config ()) with jobs; interp; chaos } in
  let svc = Service.create ~config spec in
  let dmgr = Durable.create (Durable.config ~group_commit:true ~interp spec) in
  let out = Buffer.create 4096 in
  let server = Server.create svc dmgr ~sink:(Buffer.add_string out) in
  feed server;
  Server.close server;
  Service.shutdown svc;
  Durable.shutdown dmgr;
  Buffer.contents out

let serve_lines ?chaos ?jobs lines =
  serve ?chaos ?jobs (fun server ->
      List.iter (fun l -> Server.handle server (Protocol.parse l)) lines)

let split_lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* [ms=] is a wall-clock reading. *)
let drop_ms line =
  String.split_on_char ' ' line
  |> List.map (fun w -> if String.starts_with ~prefix:"ms=" w then "ms=X" else w)
  |> String.concat " "

let words l = String.split_on_char ' ' l

(* The rows of request [n], in reply order. *)
let rows_of n lines =
  let tag = "out " ^ string_of_int n ^ " " in
  List.filter_map
    (fun l ->
      if String.starts_with ~prefix:tag l then
        Some (String.sub l (String.length tag) (String.length l - String.length tag))
      else None)
    lines

let status_of n lines =
  let tag = "done " ^ string_of_int n ^ " " in
  match List.filter (String.starts_with ~prefix:tag) lines with
  | [ l ] -> l
  | l -> Alcotest.failf "request %d has %d status lines" n (List.length l)

(* ---- [scallop serve] and [Server] agree ------------------------------------------ *)

let twin_script =
  String.concat "\n"
    [
      "rel p = {(1, 2), (2, 3)};rel q(a, c) = p(a, b), p(b, c);query q";
      "type edge(i32, i32);rel edge = {0.5::(0, 1), 0.25::(1, 2)};rel r(x) = edge(0, x);query \
       r";
      "rel broken = nosuch;query broken";
      "open s1 type edge(i32, i32);rel path(a, b) = edge(a, b);rel path(a, c) = path(a, b), \
       edge(b, c);query path";
      "assert s1 0.5::edge(1, 2)";
      "assert s1 edge(2, 3)";
      "";
      "query s1";
      "query s1 path";
      "retract s1 edge(2, 3)";
      "query s1";
      "   ";
      "assert nosuch edge(1, 2)";
      "query nosuch";
      "close nosuch";
      "assert s1";
      "retract s1 0.5::edge(1, 2)";
      "open";
      "stats extra";
      "repl promote";
      "repl bogus";
      "stats";
      "scrub";
      "repl status";
      "close s1";
      "query s1";
      "rel last = {7};query last";
    ]

(* The plan cache counts for the whole process and the WMC cache for the
   whole domain, and other suites ran here first.  Empty both and shift
   their counters by the values they held, so the in-process [stats]
   reads as a fresh process's. *)
let counters_from_now () =
  Session.clear_plan_cache ();
  Wmc.clear_cache ();
  let pc = Session.plan_cache_stats () and wc = Wmc.cache_stats () in
  let base =
    [
      ("hits", pc.Session.hits);
      ("misses", pc.Session.misses);
      ("evictions", pc.Session.evictions);
      ("bdd-hits", wc.Wmc.bdd_hits);
      ("bdd-misses", wc.Wmc.bdd_misses);
      ("result-hits", wc.Wmc.result_hits);
      ("result-misses", wc.Wmc.result_misses);
      ("resets", wc.Wmc.resets);
    ]
  in
  let shift w =
    match String.split_on_char '=' w with
    | [ k; v ] -> (
        match (List.assoc_opt k base, int_of_string_opt v) with
        | Some b, Some v -> Printf.sprintf "%s=%d" k (v - b)
        | _ -> w)
    | _ -> w
  in
  fun line ->
    match words line with
    | "out" :: _ :: ("plan-cache" | "wmc") :: _ ->
        String.concat " " (List.map shift (words line))
    | _ -> line

let test_cli_twin () =
  let path = Filename.temp_file "scallop-server" ".txt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc twin_script);
  let out = Filename.temp_file "scallop-server" ".out" in
  let cmd =
    Fmt.str "../bin/scallop.exe serve -p minmaxprob < %s > %s 2> /dev/null"
      (Filename.quote path) (Filename.quote out)
  in
  Alcotest.(check int) "scallop serve exits 0" 0 (Sys.command cmd);
  let cli = In_channel.with_open_bin out In_channel.input_all in
  let rebase = counters_from_now () in
  let lib =
    serve (fun server ->
        In_channel.with_open_bin path (fun ic ->
            let requests = Protocol.reader ic in
            Seq.iter (Server.handle server)
              (Seq.of_dispenser (fun () -> Protocol.read_request requests))))
  in
  Sys.remove path;
  Sys.remove out;
  let norm ?(f = Fun.id) s = List.map (fun l -> drop_ms (f l)) (split_lines s) in
  Alcotest.(check (list string)) "same replies" (norm cli) (norm ~f:rebase lib);
  (* the script reached every reply kind *)
  let lines = split_lines cli in
  Alcotest.(check int) "one status line per non-blank line" 25
    (List.length (List.filter (String.starts_with ~prefix:"done ") lines));
  List.iter
    (fun want ->
      if not (List.exists (fun l -> List.mem want (words l)) lines) then
        Alcotest.failf "no reply has %S" want)
    [ "compile"; "plan-cache"; "scrub"; "role=none"; "closed"; "retracted"; "unknown" ]

(* ---- a write waits for in-flight queries ----------------------------------------- *)

let tc_open =
  "open s type edge(i32, i32);rel path(a, b) = edge(a, b);rel path(a, c) = path(a, b), edge(b, \
   c);query path"

(* Every attempt stalls 50 ms on one of two workers, so the assert arrives
   while query 2 still waits to run: that query must not see it. *)
let test_write_waits () =
  let chaos = { Chaos.none with latency_prob = 1.0; latency = 0.05 } in
  let lines =
    split_lines
      (serve_lines ~chaos ~jobs:2
         [ tc_open; "assert s edge(0, 1)"; "query s"; "assert s edge(1, 2)"; "query s" ])
  in
  Alcotest.(check (list string)) "the query before the write" [ "1.000000::path(0, 1)" ]
    (rows_of 2 lines);
  Alcotest.(check (list string))
    "the query after it"
    [ "1.000000::path(0, 1)"; "1.000000::path(0, 2)"; "1.000000::path(1, 2)" ]
    (List.sort compare (rows_of 4 lines));
  Alcotest.(check string) "the write" "done 3 ok asserted s" (status_of 3 lines)

(* ---- one status line per request, in request order ------------------------------- *)

let test_one_status_per_request () =
  let rng = Random.State.make [| 11 |] in
  let session k =
    match Random.State.int rng 6 with
    | 0 | 1 -> Printf.sprintf "assert s edge(%d, %d)" k (k + 1)
    | 2 -> Printf.sprintf "retract s edge(%d, %d)" (k - 1) k
    | 3 -> "query s path"
    | 4 -> Printf.sprintf "rel p = {(%d, %d)};rel q(a) = p(a, _);query q" k (k + 1)
    | _ -> [| "query nobody"; "stats"; "assert s"; "rel x = nosuch" |].(k mod 4)
  in
  let script = tc_open :: List.init 29 (fun k -> session (k + 1)) in
  let lines = split_lines (serve_lines ~jobs:2 script) in
  (* walk the replies: each [done n] closes request n, and rows before it
     belong to it *)
  let next =
    List.fold_left
      (fun n line ->
        match words line with
        | "out" :: id :: _ ->
            Alcotest.(check string) "a row of the open request" (string_of_int n) id;
            n
        | "done" :: id :: _ ->
            Alcotest.(check string) "the next status line" (string_of_int n) id;
            n + 1
        | _ -> Alcotest.failf "stray reply line %S" line)
      0 lines
  in
  Alcotest.(check int) "one status line per request" (List.length script) next;
  Alcotest.(check bool) "some queries returned rows" true
    (List.exists (String.starts_with ~prefix:"out ") lines)

(* ---- fact atoms through the loop -------------------------------------------------- *)

let test_quoted_and_probabilities () =
  let lines =
    split_lines
      (serve_lines
         [
           "open s type name(String);rel out(x) = name(x);query out";
           "assert s name(\"a,b\")";
           "assert s 0.5::name(\"x::y\")";
           "query s";
           "assert s nan::name(\"a,b\")";
           "assert s 1.5::name(\"z\")";
           "assert s -inf::name(\"z\")";
           "query s";
           "retract s name(\"a,b\")";
           "retract s name(\"x::y\")";
           "query s";
           "assert s 1::name(\"one\")";
           "assert s 0.0::name(\"zero\")";
         ])
  in
  let rows = [ "0.500000::out(\"x::y\")"; "1.000000::out(\"a,b\")" ] in
  Alcotest.(check (list string)) "quoted values round-trip" rows
    (List.sort compare (rows_of 3 lines));
  List.iter
    (fun n ->
      match words (status_of n lines) with
      | _ :: _ :: "error" :: "assert:" :: "probability" :: _ -> ()
      | _ -> Alcotest.failf "assert %d: %s" n (status_of n lines))
    [ 4; 5; 6 ];
  Alcotest.(check (list string)) "rejected probabilities change nothing" rows
    (List.sort compare (rows_of 7 lines));
  Alcotest.(check string) "retract \"a,b\"" "done 8 ok retracted s" (status_of 8 lines);
  Alcotest.(check string) "retract \"x::y\"" "done 9 ok retracted s" (status_of 9 lines);
  Alcotest.(check (list string)) "both retracted" [] (rows_of 10 lines);
  Alcotest.(check string) "probability 1 accepted" "done 11 ok asserted s" (status_of 11 lines);
  Alcotest.(check string) "probability 0 accepted" "done 12 ok asserted s" (status_of 12 lines)

(* ---- pipelined acknowledgements -------------------------------------------------- *)

(* A [Server] over a quorum primary whose barrier pumps an in-process
   follower, but only while [gate] is open: a closed gate holds every
   write's acknowledgement and none of its commits.  Each reply is kept
   with the follower's applied-frame count at the moment it reached the
   sink, and [on_reply] sees it first. *)
type quorum = {
  root : string;
  svc : Service.t;
  pmgr : Durable.t;
  fmgr : Durable.t;
  prim : Replica.Primary.t;
  fol : Replica.Follower.t;
  server : Server.t;
  gate : bool Atomic.t;
  on_reply : (string -> unit) ref;
  replies : (string * int) list ref;  (** newest first *)
  replies_m : Mutex.t;
}

let applied f = (Replica.Follower.status f).Replica.Follower.st_applied

let quorum_server ?(ack_timeout = 5.0) ?(queue_depth = (Service.default_config ()).queue_depth)
    () =
  let root = Test_replication.scratch_dir () in
  let ship = Filename.concat root "ship" in
  let fmgr =
    Durable.create
      (Durable.config ~state_dir:(Filename.concat root "f") ~wal_sync:false Registry.Boolean)
  in
  let gate = Atomic.make true in
  let fol_ref = ref None in
  let pump () =
    match !fol_ref with
    | Some f when Atomic.get gate -> ignore (Replica.Follower.poll f)
    | _ -> Unix.sleepf 0.001
  in
  let prim =
    Replica.Primary.create ~dir:ship ~id:"alpha" ~ack:Replica.Ack_quorum ~cluster:1
      ~ack_timeout ~pump ()
  in
  let pmgr =
    Durable.create
      (Durable.config ~state_dir:(Filename.concat root "p") ~wal_sync:true ~group_commit:true
         ~repl:(Replica.Primary.sink prim) Registry.Boolean)
  in
  let fol = Replica.Follower.create ~dir:ship ~fid:"beta" ~mgr:fmgr () in
  fol_ref := Some fol;
  let svc =
    Service.create ~config:{ (Service.default_config ()) with jobs = 1; queue_depth }
      Registry.Boolean
  in
  let on_reply = ref ignore and replies = ref [] and replies_m = Mutex.create () in
  let sink reply =
    !on_reply reply;
    let n = applied fol in
    Mutex.protect replies_m (fun () -> replies := (reply, n) :: !replies)
  in
  let server = Server.create ~primary:prim ~sink svc pmgr in
  { root; svc; pmgr; fmgr; prim; fol; server; gate; on_reply; replies; replies_m }

let send q line = Server.handle q.server (Protocol.parse line)

(* Request [n]'s reply and the follower's applied count when it was
   printed, once it has reached the sink. *)
let reply_of q n =
  let tag = "done " ^ string_of_int n ^ " " in
  let has_done (r, _) = List.exists (String.starts_with ~prefix:tag) (split_lines r) in
  List.find_opt has_done (Mutex.protect q.replies_m (fun () -> !(q.replies)))

let await_reply q n =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    match reply_of q n with
    | Some r -> r
    | None when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.001;
        go ()
    | None -> Alcotest.failf "no reply to request %d within 10 s" n
  in
  go ()

(* Close the server and return every reply line, in the order printed. *)
let finish q =
  Server.close q.server;
  Service.shutdown q.svc;
  Durable.shutdown q.pmgr;
  Durable.shutdown q.fmgr;
  Replica.Primary.close q.prim;
  Replica.Follower.close q.fol;
  List.concat_map (fun (r, _) -> split_lines r) (List.rev !(q.replies))

let open_s = "open s " ^ String.map (fun c -> if c = '\n' then ';' else c) Test_durability.tc_src

(* [handle] returns for a quorum write at its commit, before any follower
   acknowledged it; its [ok] reaches the sink only after the follower
   applied it. *)
let test_write_returns_before_ack () =
  let q = quorum_server () in
  send q open_s;
  ignore (await_reply q 0);
  Atomic.set q.gate false;
  let before = applied q.fol in
  send q "assert s edge(0, 1)";
  Alcotest.(check bool) "no reply while the follower has not acked" true (reply_of q 1 = None);
  Alcotest.(check int) "the follower has not applied it" before (applied q.fol);
  Atomic.set q.gate true;
  let reply, applied_then = await_reply q 1 in
  Alcotest.(check string) "acknowledged" "done 1 ok asserted s\n" reply;
  if applied_then <= before then
    Alcotest.fail "the ok reached the sink before the follower applied the write";
  ignore (finish q);
  Test_replication.rm_rf q.root

(* Writes and queries sent while every acknowledgement is held: replies
   stay in request order, and a query after a pending write answers with
   that write applied. *)
let test_pipelined_replies_in_order () =
  let q = quorum_server () in
  send q open_s;
  ignore (await_reply q 0);
  Atomic.set q.gate false;
  List.iter (send q)
    [
      "assert s edge(0, 1)";
      "query s";
      "assert s edge(1, 2)";
      "retract s edge(0, 1)";
      "query s";
      "rel p = {(1, 2)};query p";
    ];
  Atomic.set q.gate true;
  let lines = finish q in
  Alcotest.(check (list string))
    "status lines in request order"
    [ "0"; "1"; "2"; "3"; "4"; "5"; "6" ]
    (List.filter_map
       (fun l -> match words l with "done" :: n :: _ -> Some n | _ -> None)
       lines);
  Alcotest.(check string) "assert" "done 1 ok asserted s" (status_of 1 lines);
  Alcotest.(check (list string)) "the query sees the pending assert" [ "true::path(0, 1)" ]
    (rows_of 2 lines);
  Alcotest.(check string) "assert" "done 3 ok asserted s" (status_of 3 lines);
  Alcotest.(check string) "retract" "done 4 ok retracted s" (status_of 4 lines);
  Alcotest.(check (list string)) "the query sees both pending writes" [ "true::path(1, 2)" ]
    (rows_of 5 lines);
  Alcotest.(check (list string)) "one-shot" [ "true::p(1, 2)" ] (rows_of 6 lines);
  Test_replication.rm_rf q.root

(* A write whose acknowledgement times out replies the typed error in its
   place, and the requests behind it are still answered.  The gate opens
   once that reply is printed, so the next write is acknowledged. *)
let test_ack_timeout_in_place () =
  let q = quorum_server ~ack_timeout:0.2 () in
  send q open_s;
  ignore (await_reply q 0);
  Atomic.set q.gate false;
  (q.on_reply := fun r -> if String.starts_with ~prefix:"done 1 " r then Atomic.set q.gate true);
  List.iter (send q) [ "assert s edge(0, 1)"; "query s"; "assert s edge(1, 2)"; "query s" ];
  let lines = finish q in
  (match words (status_of 1 lines) with
  | "done" :: "1" :: "error" :: "replication" :: "ack" :: "timeout:" :: "0/1" :: _ -> ()
  | _ -> Alcotest.failf "expected a typed ack timeout, got %S" (status_of 1 lines));
  Alcotest.(check (list string)) "the write stays applied" [ "true::path(0, 1)" ]
    (rows_of 2 lines);
  Alcotest.(check string) "the next write" "done 3 ok asserted s" (status_of 3 lines);
  Alcotest.(check (list string))
    "the last query"
    [ "true::path(0, 1)"; "true::path(0, 2)"; "true::path(1, 2)" ]
    (List.sort compare (rows_of 4 lines));
  Test_replication.rm_rf q.root

(* Writes pipelined behind a follower that never acks time out together:
   each quorum deadline runs from the write's commit, not from when the
   printer reaches it, so ten writes cost about one timeout, not ten. *)
let test_ack_deadline_from_commit () =
  let q = quorum_server ~ack_timeout:0.2 () in
  send q open_s;
  ignore (await_reply q 0);
  Atomic.set q.gate false;
  let t0 = Unix.gettimeofday () in
  for i = 1 to 10 do
    send q (Printf.sprintf "assert s edge(%d, %d)" i (i + 1))
  done;
  ignore (await_reply q 10);
  let elapsed = Unix.gettimeofday () -. t0 in
  let lines = finish q in
  for n = 1 to 10 do
    match words (status_of n lines) with
    | "done" :: _ :: "error" :: "replication" :: "ack" :: "timeout:" :: "0/1" :: _ -> ()
    | _ -> Alcotest.failf "expected a typed ack timeout, got %S" (status_of n lines)
  done;
  if elapsed > 0.6 then
    Alcotest.failf "the last of 10 timeouts replied %.3f s after the first commit" elapsed;
  Test_replication.rm_rf q.root

(* At [queue_depth] writes owed an acknowledgement, [handle] waits for the
   oldest before it commits another: with the gate closed and room for
   two, the third pipelined assert returns only once the gate opens. *)
let test_write_pipeline_bound () =
  let q = quorum_server ~queue_depth:2 () in
  send q open_s;
  ignore (await_reply q 0);
  Atomic.set q.gate false;
  List.iter (send q) [ "assert s edge(0, 1)"; "assert s edge(1, 2)" ];
  let returned = Atomic.make None in
  let third =
    Thread.create
      (fun () ->
        send q "assert s edge(2, 3)";
        Atomic.set returned (Some (Unix.gettimeofday ())))
      ()
  in
  Unix.sleepf 0.2;
  let opened = Unix.gettimeofday () in
  let early = Atomic.get returned in
  Atomic.set q.gate true;
  Thread.join third;
  (match (early, Atomic.get returned) with
  | None, Some t when t >= opened -> ()
  | _ -> Alcotest.fail "the third assert was committed while two writes were owed");
  let lines = finish q in
  List.iter
    (fun n ->
      Alcotest.(check string) "acknowledged" (Printf.sprintf "done %d ok asserted s" n)
        (status_of n lines))
    [ 1; 2; 3 ];
  Test_replication.rm_rf q.root

(* A write whose group fsync fails replies the typed I/O error in its
   place; fsync on a pipe fails, so a pipe stands in for the session's
   WAL.  A restart recovers every write acknowledged before it. *)
let test_fsync_failure_in_place () =
  let q = quorum_server () in
  List.iter (send q) [ open_s; "assert s edge(0, 1)"; "assert s edge(1, 2)" ];
  ignore (await_reply q 2);
  let r, pw = Unix.pipe () in
  Unix.dup2 pw (Test_durability.live_wal q.pmgr "s").Wal.fd;
  List.iter (send q) [ "assert s edge(2, 3)"; "query s"; "assert s edge(3, 4)" ];
  let lines = finish q in
  List.iter Unix.close [ r; pw ];
  List.iter
    (fun n ->
      match words (status_of n lines) with
      | _ :: _ :: "error" :: "state-dir" :: "I/O" :: "failed:" :: _ -> ()
      | _ -> Alcotest.failf "expected a typed I/O error, got %S" (status_of n lines))
    [ 3; 5 ];
  Alcotest.(check int) "the query is answered" 1
    (List.length (List.filter (String.starts_with ~prefix:"done 4 ok") lines));
  let restarted =
    Durable.create
      (Durable.config ~state_dir:(Filename.concat q.root "p") ~wal_sync:false Registry.Boolean)
  in
  let oracle = Test_replication.(oracle [ Open; A (0, 1); A (1, 2) ]) in
  if not (Test_durability.results_equal (Durable.query restarted ~sid:"s" ()) oracle) then
    Alcotest.fail "the restart does not hold exactly the acknowledged writes";
  Durable.shutdown restarted;
  Test_replication.rm_rf q.root

(* ---- heartbeat and auto-promotion ------------------------------------------------ *)

(* Two servers on one ship directory: a primary, whose server runs the
   heartbeat thread, and a follower promoting itself once that heartbeat
   is 0.5 s stale.  It stays a follower while the primary heartbeats, and
   promotes soon after the primary's server closes. *)
let test_auto_promote_on_stale_heartbeat () =
  let root = Test_replication.scratch_dir () in
  let ship = Filename.concat root "ship" in
  let registry ?repl name =
    Durable.create
      (Durable.config ~state_dir:(Filename.concat root name) ~wal_sync:false ?repl
         Registry.Boolean)
  in
  let service () =
    Service.create ~config:{ (Service.default_config ()) with jobs = 1 } Registry.Boolean
  in
  let prim = Replica.Primary.create ~dir:ship ~id:"alpha" () in
  let pmgr = registry ~repl:(Replica.Primary.sink prim) "p" and fmgr = registry "f" in
  let fol = Replica.Follower.create ~dir:ship ~fid:"beta" ~mgr:fmgr () in
  let psvc = service () and fsvc = service () in
  let primary = Server.create ~primary:prim ~sink:ignore psvc pmgr in
  let follower = Server.create ~auto_promote:0.5 ~follower:fol ~sink:ignore fsvc fmgr in
  let promoted () = (Replica.Follower.status fol).Replica.Follower.st_promoted in
  Unix.sleepf 1.5;
  Alcotest.(check bool) "a follower while the primary heartbeats" false (promoted ());
  Server.close primary;
  let closed = Unix.gettimeofday () in
  while (not (promoted ())) && Unix.gettimeofday () -. closed < 2.0 do
    Unix.sleepf 0.01
  done;
  Alcotest.(check bool) "promoted within 2 s of the primary's close" true (promoted ());
  Server.close follower;
  List.iter Service.shutdown [ psvc; fsvc ];
  List.iter Durable.shutdown [ pmgr; fmgr ];
  Replica.Primary.close prim;
  Replica.Follower.close fol;
  Test_replication.rm_rf root

(* ---- the loop waits on no query ------------------------------------------------- *)

(* Every attempt stalls 0.3 s on one of two workers.  The assert sent
   while query 2 runs returns at once, and query 2 does not see it; the
   query after it does.  The close sent while both queries run counts
   both. *)
let test_write_passes_running_query () =
  let chaos = { Chaos.none with latency_prob = 1.0; latency = 0.3 } in
  let took = ref infinity in
  let lines =
    split_lines
      (serve ~chaos ~jobs:2 (fun server ->
           let send l = Server.handle server (Protocol.parse l) in
           List.iter send [ tc_open; "assert s edge(0, 1)"; "query s" ];
           let t0 = Unix.gettimeofday () in
           send "assert s edge(1, 2)";
           took := Unix.gettimeofday () -. t0;
           List.iter send [ "query s"; "close s" ]))
  in
  if !took > 0.1 then Alcotest.failf "the assert returned %.3f s after it was sent" !took;
  Alcotest.(check (list string)) "the running query" [ "1.000000::path(0, 1)" ] (rows_of 2 lines);
  Alcotest.(check (list string))
    "the query after the write"
    [ "1.000000::path(0, 1)"; "1.000000::path(0, 2)"; "1.000000::path(1, 2)" ]
    (List.sort compare (rows_of 4 lines));
  (match rows_of 5 lines with
  | [ row ] when List.mem "queries=2" (words row) -> ()
  | rows -> Alcotest.failf "the close's statistics: %s" (String.concat " | " rows));
  Alcotest.(check string) "the close" "done 5 ok closed s" (status_of 5 lines)

(* [handle] returns for a quorum close at its commit; its statistics and
   [ok] reach the sink only once the follower acknowledged it. *)
let test_close_returns_before_ack () =
  let q = quorum_server ~ack_timeout:2.0 () in
  send q open_s;
  ignore (await_reply q 0);
  Atomic.set q.gate false;
  let t0 = Unix.gettimeofday () in
  send q "close s";
  let took = Unix.gettimeofday () -. t0 in
  if took > 0.5 then Alcotest.failf "the close returned %.3f s after it was sent" took;
  Unix.sleepf 0.05;
  Alcotest.(check bool) "no reply while the follower has not acked" true (reply_of q 1 = None);
  Atomic.set q.gate true;
  let reply, _ = await_reply q 1 in
  Alcotest.(check string) "acknowledged"
    "out 1 session s queries=0 updates=0 full=0\ndone 1 ok closed s\n" reply;
  ignore (finish q);
  Test_replication.rm_rf q.root

let suite =
  [
    Alcotest.test_case "scallop serve and Server agree" `Quick test_cli_twin;
    Alcotest.test_case "a write waits for in-flight queries" `Quick test_write_waits;
    Alcotest.test_case "one status line per request" `Quick test_one_status_per_request;
    Alcotest.test_case "quoted strings and bad probabilities" `Quick
      test_quoted_and_probabilities;
    Alcotest.test_case "a quorum write returns before its ack" `Quick
      test_write_returns_before_ack;
    Alcotest.test_case "pipelined replies stay in request order" `Quick
      test_pipelined_replies_in_order;
    Alcotest.test_case "an ack timeout replies in its place" `Quick test_ack_timeout_in_place;
    Alcotest.test_case "a failed group fsync replies in its place" `Quick
      test_fsync_failure_in_place;
    Alcotest.test_case "ack deadlines run from the commit" `Quick test_ack_deadline_from_commit;
    Alcotest.test_case "pipelined writes stop at the queue depth" `Quick
      test_write_pipeline_bound;
    Alcotest.test_case "a stale heartbeat auto-promotes the follower" `Quick
      test_auto_promote_on_stale_heartbeat;
    Alcotest.test_case "a write does not wait for a running query" `Quick
      test_write_passes_running_query;
    Alcotest.test_case "a quorum close returns before its ack" `Quick
      test_close_returns_before_ack;
  ]
