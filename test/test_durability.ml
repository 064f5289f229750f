(** Durable sessions ({!Scallop_incr.Durable} over {!Scallop_utils.Wal}):
    WAL fault injection (torn tails, byte flips, truncation at every byte),
    crash-consistent recovery bit-identity against op-prefix oracles,
    idempotent replay across the snapshot/prune window, snapshot-generation
    fallback, idle eviction + rehydration, a close racing an in-flight
    query, and queries that stall no write. *)

open Scallop_core
module Incr = Scallop_incr.Incr
module Durable = Scallop_incr.Durable
module Replica = Scallop_incr.Replica
module Wal = Scallop_utils.Wal
module Atomic_io = Scallop_utils.Atomic_io

let tc_src =
  "type edge(i32, i32)\n\
   rel path(a, b) = edge(a, b)\n\
   rel path(a, c) = path(a, b), edge(b, c)\n\
   query path"

let i32 n = Value.int Value.I32 n
let pair a b = Tuple.of_list [ i32 a; i32 b ]

let output_equal (a : Provenance.Output.t) (b : Provenance.Output.t) =
  match (a, b) with
  | Provenance.Output.O_unit, Provenance.Output.O_unit -> true
  | O_bool x, O_bool y -> Bool.equal x y
  | O_nat x, O_nat y -> Int.equal x y
  | O_prob x, O_prob y -> Float.equal x y
  | a, b -> a = b

let results_equal (a : Session.result) (b : Session.result) =
  List.length a.Session.outputs = List.length b.Session.outputs
  && List.for_all2
       (fun (pa, la) (pb, lb) ->
         String.equal pa pb
         && List.length la = List.length lb
         && List.for_all2
              (fun (ta, oa) (tb, ob) -> Tuple.compare ta tb = 0 && output_equal oa ob)
              la lb)
       a.Session.outputs b.Session.outputs

(* ---- scratch directories ----------------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

let scratch_counter = ref 0

let scratch_dir () =
  incr scratch_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "scallop-durability-%d-%d" (Unix.getpid ()) !scratch_counter)
  in
  rm_rf d;
  Atomic_io.mkdir_p d;
  d

let rec cp_r src dst =
  if Sys.is_directory src then begin
    Atomic_io.mkdir_p dst;
    Array.iter
      (fun e -> cp_r (Filename.concat src e) (Filename.concat dst e))
      (Sys.readdir src)
  end
  else begin
    let ic = open_in_bin src in
    let data = In_channel.input_all ic in
    close_in ic;
    let oc = open_out_bin dst in
    output_string oc data;
    close_out oc
  end

let read_bytes path =
  let ic = open_in_bin path in
  let data = In_channel.input_all ic in
  close_in ic;
  data

let write_bytes path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* ---- WAL fault injection ------------------------------------------------------ *)

let test_wal_roundtrip () =
  let dir = scratch_dir () in
  let path = Filename.concat dir "wal-000000000.log" in
  let w = Wal.open_append ~sync:false ~path () in
  List.iter (Wal.append w) [ "alpha"; ""; "gamma with spaces"; String.make 1000 'x' ];
  Wal.close w;
  let records, tail = Wal.read ~path in
  Alcotest.(check (list string))
    "records round-trip"
    [ "alpha"; ""; "gamma with spaces"; String.make 1000 'x' ]
    records;
  (match tail with Wal.Clean -> () | t -> Alcotest.failf "tail not clean: %s" (Wal.tail_string t));
  (* reopening a clean segment appends after the existing records *)
  let w = Wal.open_append ~sync:false ~path () in
  Wal.append w "delta";
  Wal.close w;
  let records, _ = Wal.read ~path in
  Alcotest.(check int) "append after reopen" 5 (List.length records);
  rm_rf dir

(* Truncating a segment at EVERY byte must read as a clean prefix of the
   records plus a torn (never corrupt) tail, and reopening for append must
   recover writability. *)
let test_wal_truncation_every_byte () =
  let dir = scratch_dir () in
  let path = Filename.concat dir "wal-000000000.log" in
  let w = Wal.open_append ~sync:false ~path () in
  let payloads = [ "first-record"; "second"; "a-third-record-here" ] in
  List.iter (Wal.append w) payloads;
  Wal.close w;
  let full = read_bytes path in
  let tpath = Filename.concat dir "trunc.log" in
  for cut = 0 to String.length full do
    write_bytes tpath (String.sub full 0 cut);
    let records, tail = Wal.read ~path:tpath in
    (match tail with
    | Wal.Corrupt { offset; reason } ->
        Alcotest.failf "cut at %d read as corrupt (offset %d: %s)" cut offset reason
    | Wal.Clean | Wal.Torn _ -> ());
    let n = List.length records in
    if n > List.length payloads then Alcotest.failf "cut at %d yielded %d records" cut n;
    List.iteri
      (fun i r ->
        if not (String.equal r (List.nth payloads i)) then
          Alcotest.failf "cut at %d: record %d mismatch" cut i)
      records;
    (* the torn tail is recoverable: reopen, append, read back *)
    let w = Wal.open_append ~sync:false ~path:tpath () in
    Wal.append w "recovered";
    Wal.close w;
    let records', tail' = Wal.read ~path:tpath in
    (match tail' with
    | Wal.Clean -> ()
    | t -> Alcotest.failf "cut at %d: reopened tail %s" cut (Wal.tail_string t));
    Alcotest.(check int) "prefix + appended" (n + 1) (List.length records');
    if not (String.equal (List.nth records' n) "recovered") then
      Alcotest.failf "cut at %d: appended record lost" cut
  done;
  rm_rf dir

let flip_byte path off =
  let data = Bytes.of_string (read_bytes path) in
  Bytes.set data off (Char.chr (Char.code (Bytes.get data off) lxor 0x5a));
  write_bytes path (Bytes.to_string data)

(* A byte flip in a NON-final record is bit rot, not a crash signature:
   the reader reports Corrupt and the writer refuses the segment.  The same
   flip in the final record is indistinguishable from a torn write and is
   tolerated as a tear. *)
let test_wal_byte_flip () =
  let dir = scratch_dir () in
  let path = Filename.concat dir "wal-000000000.log" in
  let w = Wal.open_append ~sync:false ~path () in
  List.iter (Wal.append w) [ "record-one"; "record-two"; "record-three" ];
  Wal.close w;
  (* offset 8 is the first record's header; flip inside its payload *)
  flip_byte path (8 + 12 + 2);
  (match Wal.read ~path with
  | _, Wal.Corrupt { offset = 8; _ } -> ()
  | _, t -> Alcotest.failf "expected corrupt at byte 8, got %s" (Wal.tail_string t));
  (match Wal.open_append ~sync:false ~path () with
  | exception Wal.Unwritable _ -> ()
  | w ->
      Wal.close w;
      Alcotest.fail "open_append accepted a corrupt segment");
  (* final-record flip reads as a tear, with the prefix intact *)
  flip_byte path (8 + 12 + 2) (* restore *);
  let full = read_bytes path in
  let last_off = String.length full - 3 in
  flip_byte path last_off;
  (match Wal.read ~path with
  | [ "record-one"; "record-two" ], Wal.Torn _ -> ()
  | rs, t ->
      Alcotest.failf "final flip: %d records, tail %s" (List.length rs) (Wal.tail_string t));
  rm_rf dir

(* ---- durable manager helpers --------------------------------------------------- *)

let mgr_config ?snapshot_every ?max_live ?idle_ttl ?now ~state_dir () =
  Durable.config ~state_dir ?snapshot_every ?max_live ?idle_ttl ?now
    ~wal_sync:false (* tests kill no power; skipping fsync keeps the sweep fast *)
    Registry.Boolean

let q mgr sid = Durable.query mgr ~sid ()

let check_recovered_identity what mgr sid expected =
  let got = q mgr sid in
  if not (results_equal got expected) then
    Alcotest.failf "%s: recovered query diverges from uncrashed run" what;
  let cold = Durable.run_cold mgr ~sid () in
  if not (results_equal got cold) then
    Alcotest.failf "%s: recovered query diverges from run_cold" what

(* ---- recovery ------------------------------------------------------------------- *)

let test_recover_basic () =
  let sd = scratch_dir () in
  let mgr = Durable.create (mgr_config ~state_dir:sd ()) in
  let _ = Durable.open_session mgr ~sid:"s1" tc_src in
  Durable.assert_fact mgr ~sid:"s1" ~pred:"edge" (pair 1 2);
  Durable.assert_fact mgr ~sid:"s1" ~pred:"edge" (pair 2 3);
  Durable.assert_fact mgr ~sid:"s1" ~pred:"edge" (pair 3 4);
  Durable.retract_fact mgr ~sid:"s1" ~pred:"edge" (pair 3 4);
  let expected = q mgr "s1" in
  Durable.shutdown mgr;
  (* a second manager over the same state dir = restart after a crash *)
  let mgr2 = Durable.create (mgr_config ~state_dir:sd ()) in
  Alcotest.(check int) "one session recovered" 1 (Durable.stats mgr2).Durable.recovered;
  check_recovered_identity "basic recovery" mgr2 "s1" expected;
  (* the recovered session keeps accepting updates durably *)
  Durable.assert_fact mgr2 ~sid:"s1" ~pred:"edge" (pair 4 5);
  let expected2 = q mgr2 "s1" in
  Durable.shutdown mgr2;
  let mgr3 = Durable.create (mgr_config ~state_dir:sd ()) in
  check_recovered_identity "second recovery" mgr3 "s1" expected2;
  rm_rf sd

(* The kill-anywhere contract: truncate the session's WAL at EVERY byte —
   every possible kill point of a process that dies mid-append — and
   recovery must rebuild exactly the longest acknowledged op prefix whose
   records survive, answering bit-identically to an uncrashed session that
   executed just that prefix. *)
let test_kill_at_any_byte () =
  let sd = scratch_dir () in
  let mgr = Durable.create (mgr_config ~state_dir:sd ()) in
  let _ = Durable.open_session mgr ~sid:"k" tc_src in
  let seg = Filename.concat (Filename.concat sd "sessions") "s-k" in
  let wal_path = Filename.concat seg "wal-000000000.log" in
  let ops =
    [
      `A (1, 2); `A (2, 3); `A (3, 4); `R (3, 4); `A (3, 5); `A (5, 6); `R (1, 2); `A (1, 6);
    ]
  in
  (* oracle results for every acknowledged-op prefix, plus the WAL size at
     which each prefix became durable *)
  let sizes = ref [ (Unix.stat wal_path).Unix.st_size ] in
  let prefixes = ref [ q mgr "k" ] in
  List.iter
    (fun op ->
      (match op with
      | `A (a, b) -> Durable.assert_fact mgr ~sid:"k" ~pred:"edge" (pair a b)
      | `R (a, b) -> Durable.retract_fact mgr ~sid:"k" ~pred:"edge" (pair a b));
      sizes := (Unix.stat wal_path).Unix.st_size :: !sizes;
      prefixes := q mgr "k" :: !prefixes)
    ops;
  let sizes = Array.of_list (List.rev !sizes) in
  let prefixes = Array.of_list (List.rev !prefixes) in
  Durable.shutdown mgr;
  let full = read_bytes wal_path in
  let crash_root = scratch_dir () in
  for cut = 0 to String.length full do
    let croot = Filename.concat crash_root (Printf.sprintf "cut%d" cut) in
    cp_r sd croot;
    let cwal =
      Filename.concat (Filename.concat (Filename.concat croot "sessions") "s-k")
        "wal-000000000.log"
    in
    write_bytes cwal (String.sub full 0 cut);
    let mgr2 = Durable.create (mgr_config ~state_dir:croot ()) in
    (* which acknowledged prefix does this kill point preserve? *)
    let k = ref (-1) in
    Array.iteri (fun i s -> if s <= cut && !k < i then k := i) sizes;
    if !k < 0 then begin
      (* the open itself never became durable: no session may surface *)
      let c = Durable.session_counts mgr2 in
      if c.Durable.live + c.Durable.spilled + c.Durable.failed > 0 then
        Alcotest.failf "cut at %d: phantom session recovered" cut
    end
    else begin
      Alcotest.(check int)
        (Printf.sprintf "cut at %d recovers" cut)
        1
        (Durable.stats mgr2).Durable.recovered;
      let got = q mgr2 "k" in
      if not (results_equal got prefixes.(!k)) then
        Alcotest.failf "cut at %d: result differs from %d-op prefix oracle" cut !k;
      let cold = Durable.run_cold mgr2 ~sid:"k" () in
      if not (results_equal got cold) then
        Alcotest.failf "cut at %d: recovered query diverges from run_cold" cut
    end;
    Durable.shutdown mgr2;
    rm_rf croot
  done;
  rm_rf crash_root;
  rm_rf sd

(* Crash between "snapshot is durable" and "old segments pruned": the ops
   folded into the snapshot are still on disk and must not double-apply.
   The sequence ends in a retract, which is NOT idempotent — replaying it
   twice would fail with "fact was never asserted" — so surviving this
   window proves the lsn filter. *)
let test_idempotent_replay () =
  let sd = scratch_dir () in
  let mgr = Durable.create (mgr_config ~state_dir:sd ~snapshot_every:1000 ()) in
  let _ = Durable.open_session mgr ~sid:"s" tc_src in
  Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair 1 2);
  Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair 2 3);
  Durable.retract_fact mgr ~sid:"s" ~pred:"edge" (pair 2 3);
  let expected = q mgr "s" in
  let seg0 = Filename.concat (Filename.concat (Filename.concat sd "sessions") "s-s")
      "wal-000000000.log" in
  let stale = read_bytes seg0 in
  (* compaction snapshots + rotates + prunes segment 0 ... *)
  Durable.compact mgr ~sid:"s";
  Durable.shutdown mgr;
  if Sys.file_exists seg0 then Alcotest.fail "compaction left the folded segment behind";
  (* ... but this crash resurrects it, exactly as a kill mid-prune would *)
  write_bytes seg0 stale;
  let mgr2 = Durable.create (mgr_config ~state_dir:sd ()) in
  Alcotest.(check int) "recovered" 1 (Durable.stats mgr2).Durable.recovered;
  Alcotest.(check int)
    "stale records filtered, not replayed" 0 (Durable.stats mgr2).Durable.wal_replayed;
  check_recovered_identity "idempotent replay" mgr2 "s" expected;
  rm_rf sd

(* A damaged newest snapshot falls back to an older generation plus longer
   replay; with every generation (and the open record) gone, recovery fails
   closed as a typed, per-session quarantine. *)
let test_snapshot_generation_fallback () =
  let sd = scratch_dir () in
  let mgr = Durable.create (mgr_config ~state_dir:sd ~snapshot_every:2 ()) in
  let _ = Durable.open_session mgr ~sid:"s" tc_src in
  List.iter
    (fun (a, b) -> Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair a b))
    [ (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 7) ]
  ;
  let expected = q mgr "s" in
  Durable.shutdown mgr;
  let snaps = Filename.concat (Filename.concat (Filename.concat sd "sessions") "s-s") "snap" in
  let gens = Atomic_io.Generations.list ~dir:snaps in
  if List.length gens < 2 then
    Alcotest.failf "expected >= 2 snapshot generations, found %d" (List.length gens);
  let newest = List.nth gens (List.length gens - 1) in
  flip_byte (Atomic_io.Generations.path ~dir:snaps newest) 40;
  let mgr2 = Durable.create (mgr_config ~state_dir:sd ()) in
  Alcotest.(check int) "fallback recovers" 1 (Durable.stats mgr2).Durable.recovered;
  if (Durable.stats mgr2).Durable.wal_replayed = 0 then
    Alcotest.fail "fallback to an older generation should replay the gap";
  check_recovered_identity "generation fallback" mgr2 "s" expected;
  Durable.shutdown mgr2;
  (* scorch every generation (a fresh byte, so the already-flipped newest
     stays damaged): segment 0 was pruned long ago, so nothing can rebuild
     the session — a quarantine, not a crash *)
  List.iter (fun g -> flip_byte (Atomic_io.Generations.path ~dir:snaps g) 41) (Atomic_io.Generations.list ~dir:snaps);
  let mgr3 = Durable.create (mgr_config ~state_dir:sd ()) in
  Alcotest.(check int) "quarantined" 1 (Durable.stats mgr3).Durable.recovery_failures;
  (match q mgr3 "s" with
  | _ -> Alcotest.fail "query on a quarantined session should fail"
  | exception Session.Error (Exec_error.Recovery_failed { session = "s"; _ }) -> ()
  | exception Session.Error e ->
      Alcotest.failf "expected Recovery_failed, got %s" (Session.error_string e));
  (* close discards the quarantined remains *)
  let _ = Durable.close mgr3 ~sid:"s" in
  let mgr4 = Durable.create (mgr_config ~state_dir:sd ()) in
  let c = Durable.session_counts mgr4 in
  Alcotest.(check int) "discarded on close" 0 (c.Durable.failed + c.Durable.live);
  rm_rf sd

(* A corrupt (non-tail) log record is refused at recovery with the typed
   diagnostic, never a process failure. *)
let test_corrupt_segment_quarantine () =
  let sd = scratch_dir () in
  let mgr = Durable.create (mgr_config ~state_dir:sd ()) in
  let _ = Durable.open_session mgr ~sid:"s" tc_src in
  Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair 1 2);
  Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair 2 3);
  Durable.shutdown mgr;
  let seg0 = Filename.concat (Filename.concat (Filename.concat sd "sessions") "s-s")
      "wal-000000000.log" in
  flip_byte seg0 20 (* inside the open record: a non-final record *);
  let mgr2 = Durable.create (mgr_config ~state_dir:sd ()) in
  Alcotest.(check int) "quarantined" 1 (Durable.stats mgr2).Durable.recovery_failures;
  (match Durable.assert_fact mgr2 ~sid:"s" ~pred:"edge" (pair 9 9) with
  | _ -> Alcotest.fail "assert on a quarantined session should fail"
  | exception Session.Error (Exec_error.Recovery_failed { session; reason }) ->
      Alcotest.(check string) "session named" "s" session;
      if not (String.length reason > 0) then Alcotest.fail "empty reason");
  rm_rf sd

(* ---- eviction + rehydration ----------------------------------------------------- *)

let test_eviction_lru_cap () =
  let sd = scratch_dir () in
  let mgr = Durable.create (mgr_config ~state_dir:sd ~max_live:1 ()) in
  let _ = Durable.open_session mgr ~sid:"a" tc_src in
  Durable.assert_fact mgr ~sid:"a" ~pred:"edge" (pair 1 2);
  Durable.assert_fact mgr ~sid:"a" ~pred:"edge" (pair 2 3);
  let expected_a = q mgr "a" in
  (* opening a second session pushes the first over the cap *)
  let _ = Durable.open_session mgr ~sid:"b" tc_src in
  Alcotest.(check bool) "a spilled by LRU cap" true (Durable.is_spilled mgr ~sid:"a");
  Alcotest.(check bool) "b live" false (Durable.is_spilled mgr ~sid:"b");
  Alcotest.(check int) "one eviction" 1 (Durable.stats mgr).Durable.evictions;
  (* touching the spilled session rehydrates it transparently, bit-identical *)
  let got = q mgr "a" in
  if not (results_equal got expected_a) then
    Alcotest.fail "rehydrated session diverges from pre-eviction state";
  Alcotest.(check int) "one rehydration" 1 (Durable.stats mgr).Durable.rehydrations;
  (* rehydrated sessions keep accepting durable updates *)
  Durable.assert_fact mgr ~sid:"a" ~pred:"edge" (pair 3 4);
  let expected_a2 = q mgr "a" in
  Durable.shutdown mgr;
  let mgr2 = Durable.create (mgr_config ~state_dir:sd ()) in
  check_recovered_identity "post-rehydration recovery" mgr2 "a" expected_a2;
  rm_rf sd

let test_eviction_idle_ttl () =
  let sd = scratch_dir () in
  let clock = ref 0.0 in
  let mgr =
    Durable.create (mgr_config ~state_dir:sd ~idle_ttl:10.0 ~now:(fun () -> !clock) ())
  in
  let _ = Durable.open_session mgr ~sid:"a" tc_src in
  Durable.assert_fact mgr ~sid:"a" ~pred:"edge" (pair 1 2);
  let expected = q mgr "a" in
  clock := 5.0;
  Durable.sweep mgr;
  Alcotest.(check bool) "still live within ttl" false (Durable.is_spilled mgr ~sid:"a");
  clock := 20.0;
  Durable.sweep mgr;
  Alcotest.(check bool) "spilled after ttl" true (Durable.is_spilled mgr ~sid:"a");
  let got = q mgr "a" in
  if not (results_equal got expected) then Alcotest.fail "ttl rehydration diverges";
  rm_rf sd

(* ---- close vs in-flight queries -------------------------------------------------- *)

(* Regression for the close/in-flight race: a close issued while a query is
   still executing on another domain must not tear the session down under
   it (which surfaced as a spurious "session is closed").  The query runs
   on the snapshot it took, so it finishes whatever the close does. *)
let test_close_drains_inflight_query () =
  (* a chain long enough that the query reliably overlaps the close *)
  let n = 400 in
  let mgr = Durable.create (Durable.config Registry.Boolean) in
  let _ = Durable.open_session mgr ~sid:"s" tc_src in
  for i = 0 to n - 1 do
    Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair i (i + 1))
  done;
  let started = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Atomic.set started true;
        match q mgr "s" with
        | r -> Ok r
        | exception Session.Error e -> Error e)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.002;
  let _stats = Durable.close mgr ~sid:"s" in
  (match Domain.join d with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "in-flight query lost to close: %s" (Session.error_string e));
  (* after close, the session is gone for real *)
  (match q mgr "s" with
  | _ -> Alcotest.fail "query after close should fail"
  | exception Session.Error (Exec_error.Invalid_input _) -> ())

(* [tc_src] over a static chain of [n] edges: its [path] query derives
   n(n+1)/2 tuples, which takes 50-150 ms at n = 500. *)
let chain_src n =
  tc_src ^ "\nrel edge = {"
  ^ String.concat ", " (List.init n (fun i -> Printf.sprintf "(%d, %d)" i (i + 1)))
  ^ "}"

(* Run [q] on another domain and return once it has been running for
   2 ms: the time it started, and a join giving its answer and how long
   it ran. *)
let start_query q =
  let started = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set started (Some (Unix.gettimeofday ()));
        let r = q () in
        (r, Unix.gettimeofday ()))
  in
  let rec wait () =
    match Atomic.get started with
    | Some t0 -> t0
    | None ->
        Domain.cpu_relax ();
        wait ()
  in
  let t0 = wait () in
  Unix.sleepf 0.002;
  let join () =
    let r, t1 = Domain.join d in
    (r, t1 -. t0)
  in
  (t0, join)

let path_count (r : Session.result) = List.length (List.assoc "path" r.Session.outputs)

(* Fail unless [what] returned at [t] before the query that started at
   [t0] and ran [elapsed] seconds was half done: a call that did so did
   not wait for the query. *)
let check_before_half what ~t0 t elapsed =
  if t -. t0 >= elapsed /. 2. then
    Alcotest.failf "%s waited for the long query: it returned %.1f ms into a %.1f ms query" what
      (1000. *. (t -. t0))
      (1000. *. elapsed)

(* A query holds no lock while it evaluates: during a long query on [s],
   an assert on [s] and a query on another session both return, and the
   long query answers the facts it started with. *)
let test_query_stalls_nothing () =
  let n = 500 in
  let mgr = Durable.create (Durable.config Registry.Boolean) in
  let _ = Durable.open_session mgr ~sid:"s" (chain_src n) in
  let _ = Durable.open_session mgr ~sid:"t" tc_src in
  Durable.assert_fact mgr ~sid:"t" ~pred:"edge" (pair 0 1);
  let t0, join = start_query (fun () -> q mgr "s") in
  Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair n (n + 1));
  let asserted = Unix.gettimeofday () in
  Alcotest.(check int) "the other session answers" 1 (path_count (q mgr "t"));
  let queried = Unix.gettimeofday () in
  let r, elapsed = join () in
  check_before_half "the assert" ~t0 asserted elapsed;
  check_before_half "the other session's query" ~t0 queried elapsed;
  Alcotest.(check int) "the long query excludes the assert" (n * (n + 1) / 2) (path_count r);
  Alcotest.(check int) "a later query includes it" ((n + 1) * (n + 2) / 2)
    (path_count (q mgr "s"))

(* ---- protocol edges --------------------------------------------------------------- *)

let test_validate_before_log () =
  (* a rejected op must leave no trace in the log: after a failed retract,
     recovery replays cleanly (a logged-but-invalid op would poison it) *)
  let sd = scratch_dir () in
  let mgr = Durable.create (mgr_config ~state_dir:sd ()) in
  let _ = Durable.open_session mgr ~sid:"s" tc_src in
  Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair 1 2);
  (match Durable.retract_fact mgr ~sid:"s" ~pred:"edge" (pair 7 7) with
  | _ -> Alcotest.fail "retract of a never-asserted fact should fail"
  | exception Session.Error (Exec_error.Invalid_input _) -> ());
  (match Durable.assert_fact mgr ~sid:"s" ~pred:"nosuch" (pair 1 2) with
  | _ -> Alcotest.fail "assert into an unknown relation should fail"
  | exception Session.Error (Exec_error.Invalid_input _) -> ());
  let expected = q mgr "s" in
  Durable.shutdown mgr;
  let mgr2 = Durable.create (mgr_config ~state_dir:sd ()) in
  Alcotest.(check int) "recovered" 1 (Durable.stats mgr2).Durable.recovered;
  check_recovered_identity "no poison records" mgr2 "s" expected;
  rm_rf sd

let test_ephemeral_registry () =
  (* without a state dir the registry still enforces the session protocol *)
  let mgr = Durable.create (Durable.config Registry.Boolean) in
  let _ = Durable.open_session mgr ~sid:"s" tc_src in
  (match Durable.open_session mgr ~sid:"s" tc_src with
  | _ -> Alcotest.fail "re-open should fail"
  | exception Session.Error (Exec_error.Invalid_input _) -> ());
  Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair 1 2);
  let _ = q mgr "s" in
  let _ = Durable.close mgr ~sid:"s" in
  (match Durable.close mgr ~sid:"s" with
  | _ -> Alcotest.fail "double close should fail"
  | exception Session.Error (Exec_error.Invalid_input _) -> ());
  (match Durable.assert_fact mgr ~sid:"nope" ~pred:"edge" (pair 1 2) with
  | _ -> Alcotest.fail "unknown session should fail"
  | exception Session.Error (Exec_error.Invalid_input _) -> ())

(* ---- fsync failures on acknowledged paths ---------------------------------------- *)

(* fsync on a pipe fails (EINVAL on Linux), so a pipe's write end dup2-ed
   over a writer's descriptor stands in for a disk that refuses to flush.
   The pipe stays open until the writer is closed: a write into a pipe
   without a reader would raise SIGPIPE. *)

let test_wal_sync_now_raises () =
  let dir = scratch_dir () in
  let w = Wal.open_append ~sync:false ~path:(Filename.concat dir "ack.log") () in
  Wal.append w "fence";
  let r, pw = Unix.pipe () in
  Unix.dup2 pw w.Wal.fd;
  (match Wal.sync_now w with
  | () -> Alcotest.fail "sync_now reported a failed fsync as success"
  | exception Unix.Unix_error _ -> ());
  Wal.close w;
  List.iter Unix.close [ r; pw ];
  rm_rf dir

(* A close whose record cannot be made durable must not be acknowledged:
   it fails with the typed I/O error and quarantines the session, and a
   retried close discards it. *)
let test_close_fsync_failure_quarantines () =
  let sd = scratch_dir () in
  let mgr =
    Durable.create
      (Durable.config ~state_dir:sd ~wal_sync:true ~group_commit:true Registry.Boolean)
  in
  let _ = Durable.open_session mgr ~sid:"s" tc_src in
  Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair 1 2);
  let wal =
    match (Hashtbl.find mgr.Durable.entries "s").Durable.e_state with
    | Durable.Live { wal = Some w; _ } -> w
    | _ -> Alcotest.fail "expected a live session with an open WAL writer"
  in
  let r, pw = Unix.pipe () in
  Unix.dup2 pw wal.Wal.fd;
  (match Durable.close mgr ~sid:"s" with
  | _ -> Alcotest.fail "close acknowledged a record whose fsync failed"
  | exception Session.Error (Exec_error.Runtime_error _) -> ());
  List.iter Unix.close [ r; pw ];
  let c = Durable.session_counts mgr in
  Alcotest.(check int) "quarantined" 1 c.Durable.failed;
  Alcotest.(check int) "not closed" 0 c.Durable.closed;
  (match q mgr "s" with
  | _ -> Alcotest.fail "a quarantined session answered a query"
  | exception Session.Error (Exec_error.Runtime_error _) -> ());
  let _ = Durable.close mgr ~sid:"s" in
  Alcotest.(check int) "a retried close discards it" 1
    (Durable.session_counts mgr).Durable.closed;
  Alcotest.(check bool) "session state removed" false
    (Sys.file_exists (Filename.concat (Filename.concat sd "sessions") "s-s"));
  Durable.shutdown mgr;
  rm_rf sd

(* ---- the write path's failure policy ---------------------------------------------- *)

let session_path sd sid = Filename.concat (Filename.concat sd "sessions") ("s-" ^ sid)
let segment_path sd sid k =
  Filename.concat (session_path sd sid) (Printf.sprintf "wal-%09d.log" k)

let live_wal mgr sid =
  match (Hashtbl.find mgr.Durable.entries sid).Durable.e_state with
  | Durable.Live { wal = Some w; _ } -> w
  | _ -> Alcotest.fail "expected a live session with an open WAL writer"

(* A write cut short leaves part of its record in the segment.  The writer
   that failed is dropped, so the next append reopens the segment, which
   truncates the torn tail rather than writing after it: every
   acknowledged assert survives a restart. *)
let test_failed_append_truncates_torn_tail () =
  let sd = scratch_dir () in
  let mgr = Durable.create (mgr_config ~state_dir:sd ()) in
  let _ = Durable.open_session mgr ~sid:"s" tc_src in
  Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair 1 2);
  Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair 2 3);
  let wal = live_wal mgr "s" in
  let seg = segment_path sd "s" 0 in
  let frame = Bytes.create (Wal.record_header_len + 7) in
  Bytes.set_int32_le frame 0 7l;
  Bytes.set_int64_le frame 4 (Atomic_io.fnv1a64 "payload");
  Bytes.blit_string "payload" 0 frame Wal.record_header_len 7;
  let fd = Unix.openfile seg [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
  ignore (Unix.write fd frame 0 10);
  Unix.close fd;
  (* the disk refuses the next write *)
  let ro = Unix.openfile seg [ Unix.O_RDONLY ] 0 in
  Unix.dup2 ro wal.Wal.fd;
  Unix.close ro;
  (match Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair 3 4) with
  | () -> Alcotest.fail "an append through a read-only descriptor was acknowledged"
  | exception Session.Error (Exec_error.Runtime_error _) -> ());
  (* and takes writes again *)
  let rw = Unix.openfile seg [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
  Unix.dup2 rw wal.Wal.fd;
  Unix.close rw;
  List.iter
    (fun (a, b) -> Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair a b))
    [ (3, 4); (4, 5); (5, 6); (6, 7) ];
  let expected = q mgr "s" in
  Durable.shutdown mgr;
  (try Unix.close wal.Wal.fd with Unix.Unix_error _ -> ());
  let mgr2 = Durable.create (mgr_config ~state_dir:sd ()) in
  (match q mgr2 "s" with
  | _ -> ()
  | exception Session.Error e ->
      Alcotest.failf "acknowledged asserts lost: %s" (Session.error_string e));
  check_recovered_identity "after a failed append" mgr2 "s" expected;
  Durable.shutdown mgr2;
  rm_rf sd

(* Dropping the writer after a failed append must not acknowledge the
   records before it that still wait for their group fsync.  A follower
   appends replicated records without waiting; then a pipe's read end
   stands in for its segment, so the next append and the fsync both
   fail, and the flush that settles the earlier records must fail too. *)
let test_failed_append_keeps_pending_fsyncs () =
  let sd = scratch_dir () in
  let mgr =
    Durable.create
      (Durable.config ~state_dir:sd ~wal_sync:true ~group_commit:true ~standby:true
         Registry.Boolean)
  in
  let chain = ref 0L in
  let apply lsn op =
    let payload = Durable.encode_op op in
    chain := Durable.chain_add !chain payload;
    match Durable.apply_remote mgr ~sid:"s" ~seg:0 ~lsn ~chain:!chain ~payload with
    | Durable.Applied -> ()
    | Durable.Stale | Durable.Gap -> Alcotest.failf "the op at lsn %d was not applied" lsn
  in
  let edge lsn a b =
    Durable.Op_assert { lsn; pred = "edge"; input = Provenance.Input.none; tuple = pair a b }
  in
  apply 0
    (Durable.Op_open
       { expect_hash = None; hash = Session.source_hash tc_src; spec = "boolean"; source = tc_src });
  apply 1 (edge 1 1 2);
  let r, w = Unix.pipe () in
  Unix.dup2 r (live_wal mgr "s").Wal.fd;
  (match apply 2 (edge 2 2 3) with
  | () -> Alcotest.fail "an append into a pipe's read end succeeded"
  | exception Session.Error _ -> ());
  (match Durable.flush mgr with
  | () -> Alcotest.fail "records whose fsync failed were settled as durable"
  | exception Session.Error _ -> ());
  List.iter Unix.close [ r; w ];
  Durable.shutdown mgr;
  rm_rf sd

(* A segment that [Wal.open_append] refuses quarantines its session with a
   typed error, and a retried close discards it. *)
let test_unwritable_segment_quarantines () =
  let sd = scratch_dir () in
  let mgr = Durable.create (mgr_config ~state_dir:sd ()) in
  let _ = Durable.open_session mgr ~sid:"s" tc_src in
  for i = 1 to 5 do
    Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair i (i + 1))
  done;
  Durable.shutdown mgr;
  let mgr2 = Durable.create (mgr_config ~state_dir:sd ()) in
  flip_byte (segment_path sd "s" 0) 20;
  (match Durable.assert_fact mgr2 ~sid:"s" ~pred:"edge" (pair 9 9) with
  | () -> Alcotest.fail "an assert into a corrupt segment was acknowledged"
  | exception Session.Error (Exec_error.Recovery_failed _) -> ()
  | exception e -> Alcotest.failf "expected Recovery_failed, got %s" (Printexc.to_string e));
  (match Durable.close mgr2 ~sid:"s" with
  | _ -> ()
  | exception e -> Alcotest.failf "a retried close failed: %s" (Printexc.to_string e));
  Alcotest.(check int) "closed" 1 (Durable.session_counts mgr2).Durable.closed;
  Alcotest.(check bool) "session state removed" false (Sys.file_exists (session_path sd "s"));
  Durable.shutdown mgr2;
  rm_rf sd

(* A touch never spills the entry it hands back: at [max_live:0] every
   write rehydrates its session, logs through it and spills it again,
   closing the writer each time. *)
let test_rehydrate_keeps_its_entry () =
  let fds () = try Some (Array.length (Sys.readdir "/proc/self/fd")) with Sys_error _ -> None in
  let sd = scratch_dir () in
  let mgr = Durable.create (mgr_config ~state_dir:sd ~max_live:0 ()) in
  let _ = Durable.open_session mgr ~sid:"s" tc_src in
  Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair 0 1);
  let before = fds () in
  for i = 1 to 50 do
    Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair i (i + 1))
  done;
  (match (before, fds ()) with
  | Some b, Some a -> Alcotest.(check int) "open descriptors stay flat" b a
  | _ -> ());
  let expected = q mgr "s" in
  Durable.shutdown mgr;
  let mgr2 = Durable.create (mgr_config ~state_dir:sd ()) in
  check_recovered_identity "every write at max_live 0" mgr2 "s" expected;
  Durable.shutdown mgr2;
  rm_rf sd

(* A compaction that fails after its op is logged neither fails nor undoes
   the op: the snapshot directory is a regular file, so every snapshot
   write fails while the WAL takes every append. *)
let test_snapshot_failure_keeps_committed_op () =
  let sd = scratch_dir () in
  let mgr = Durable.create (mgr_config ~state_dir:sd ~snapshot_every:4 ()) in
  let _ = Durable.open_session mgr ~sid:"s" tc_src in
  Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair 0 1);
  write_bytes (Filename.concat (session_path sd "s") "snap") "not a directory";
  for i = 1 to 6 do
    match Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair i (i + 1)) with
    | () -> ()
    | exception Session.Error e ->
        Alcotest.failf "assert %d was logged and applied but failed: %s" i
          (Session.error_string e)
  done;
  if (Durable.stats mgr).Durable.snapshot_failures < 1 then
    Alcotest.fail "the failed snapshots were not counted";
  let expected = q mgr "s" in
  Durable.shutdown mgr;
  let mgr2 = Durable.create (mgr_config ~state_dir:sd ()) in
  check_recovered_identity "after failed snapshots" mgr2 "s" expected;
  Durable.shutdown mgr2;
  rm_rf sd

(* A spill whose snapshot fails leaves its session live, and the open
   whose cap sweep tried it still succeeds. *)
let test_failed_spill_keeps_session_live () =
  let sd = scratch_dir () in
  let mgr = Durable.create (mgr_config ~state_dir:sd ~max_live:1 ()) in
  let _ = Durable.open_session mgr ~sid:"a" tc_src in
  Durable.assert_fact mgr ~sid:"a" ~pred:"edge" (pair 1 2);
  write_bytes (Filename.concat (session_path sd "a") "snap") "not a directory";
  (match Durable.open_session mgr ~sid:"b" tc_src with
  | _ -> ()
  | exception Session.Error e ->
      Alcotest.failf "the open whose sweep failed to spill failed: %s" (Session.error_string e));
  Alcotest.(check bool) "a stays live" false (Durable.is_spilled mgr ~sid:"a");
  if (Durable.stats mgr).Durable.snapshot_failures < 1 then
    Alcotest.fail "the failed spill was not counted";
  let expected = q mgr "a" in
  Durable.shutdown mgr;
  let mgr2 = Durable.create (mgr_config ~state_dir:sd ()) in
  Alcotest.(check int) "both sessions recovered" 2 (Durable.stats mgr2).Durable.recovered;
  check_recovered_identity "after a failed spill" mgr2 "a" expected;
  Durable.shutdown mgr2;
  rm_rf sd

(* Closing a spilled session replies with the statistics it spilled with. *)
let test_close_spilled_keeps_stats () =
  let sd = scratch_dir () in
  let mgr = Durable.create (mgr_config ~state_dir:sd ~max_live:1 ()) in
  let _ = Durable.open_session mgr ~sid:"a" tc_src in
  Durable.assert_fact mgr ~sid:"a" ~pred:"edge" (pair 1 2);
  let _ = q mgr "a" in
  Durable.assert_fact mgr ~sid:"a" ~pred:"edge" (pair 2 3);
  let _ = q mgr "a" in
  let _ = Durable.open_session mgr ~sid:"b" tc_src in
  Alcotest.(check bool) "a spilled" true (Durable.is_spilled mgr ~sid:"a");
  let st = Durable.close mgr ~sid:"a" in
  Alcotest.(check string) "close stats" "queries=2 updates=2 full=2"
    (Fmt.str "%a" Incr.pp_session_stats st);
  Durable.shutdown mgr;
  rm_rf sd

(* ---- on-disk format golden ------------------------------------------------------- *)

(* Byte-exact pins of every on-disk encoding and file name.  A state dir or
   ship log written by one build must recover under the next, so a change
   to any value below is a format break, not a refactor. *)

let hex s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

let test_format_golden () =
  let check name expected actual = Alcotest.(check string) name expected (hex actual) in
  let exists name path = Alcotest.(check bool) name true (Sys.file_exists path) in
  let mixed =
    Tuple.of_list [ i32 (-3); Value.Float (Value.F64, 0.5); Value.S "hi"; Value.B true; Value.C 'z' ]
  in
  check "open op" "4f0102000000000000006831020000000000000068320700000000000000626f6f6c65616e0b0000000000000072656c2070203d207b317d"
    (Durable.encode_op
       (Durable.Op_open
          { expect_hash = Some "h1"; hash = "h2"; spec = "boolean"; source = "rel p = {1}" }));
  check "assert op" "41050000000000000004000000000000006564676501000000000000d03f01070000000000000005000000000000000002fdffffffffffffff010b000000000000e03f04020000000000000068690201037a"
    (Durable.encode_op
       (Durable.Op_assert
          {
            lsn = 5;
            pred = "edge";
            input = { Provenance.Input.prob = Some 0.25; me_group = Some 7 };
            tuple = mixed;
          }));
  check "retract op" "52060000000000000004000000000000006564676502000000000000000002010000000000000000020200000000000000"
    (Durable.encode_op (Durable.Op_retract { lsn = 6; pred = "edge"; tuple = pair 1 2 }));
  check "close op" "430900000000000000" (Durable.encode_op (Durable.Op_close { lsn = 9 }));
  check "snapshot payload" "010700000000000000626f6f6c65616e010000000000000068000b0000000000000072656c2070203d207b317d04000000000000000100000000000000040000000000000065646765020000000000000000000200000000000000000201000000000000000002020000000000000001000000000000e03f0002000000000000000002020000000000000000020300000000000000"
    (Durable.encode_snapshot
       {
         Durable.sn_spec = "boolean";
         sn_hash = "h";
         sn_expect = None;
         sn_source = "rel p = {1}";
         sn_lsn = 4;
         sn_facts =
           [
             ( "edge",
               [
                 (Provenance.Input.none, pair 1 2);
                 ({ Provenance.Input.prob = Some 0.5; me_group = None }, pair 2 3);
               ] );
           ];
       });
  check "atomic_io envelope" "53434c534e415031010000000700000000000000e5e9b563d0a9b8cf7061796c6f6164" (Atomic_io.encode "payload");
  Alcotest.(check string) "chain_add" "e6047a3a24901c27" (Printf.sprintf "%016Lx" (Durable.chain_add 0L "x"));
  Alcotest.(check string) "source_hash" "49dcbb775b05a738" (Session.source_hash "rel p = {1}");
  check "ack" "030000000000000007000000000000000b0000000000000001"
    (Replica.encode_ack { Replica.a_epoch = 3; a_seg = 7; a_idx = 11; a_fence = true });
  let root = scratch_dir () in
  let wal = Filename.concat root "two.log" in
  let w = Wal.open_append ~sync:false ~path:wal () in
  List.iter (Wal.append w) [ "ab"; "" ];
  Wal.close w;
  check "two-record wal file" "53434c57414c3031020000006a9845b507449c0861620000000025232284e49cf2cb" (read_bytes wal);
  (* frames, through a primary whose ship dir already holds segment 6 *)
  let ship = Filename.concat root "ship" in
  Atomic_io.mkdir_p ship;
  write_bytes (Filename.concat ship "ship-000000006.log") "";
  let prim = Replica.Primary.create ~dir:ship ~id:"alpha" ~ack:Replica.Ack_none () in
  let sink = Replica.Primary.sink prim in
  sink.Durable.rs_emit
    (Durable.Ev_op { sid = "s"; seg = 2; lsn = 3; chain = 0x0123456789abcdefL; payload = "op" });
  sink.Durable.rs_emit
    (Durable.Ev_seal { sid = "s"; seg = 2; last_lsn = 3; chain = -2L; records = 4 });
  sink.Durable.rs_emit (Durable.Ev_snapshot { sid = "s"; gen = 5; lsn = 3; payload = "sn" });
  Replica.Primary.close prim;
  let seg7 = Filename.concat ship "ship-000000007.log" in
  exists "ship segment name" seg7;
  (match Wal.read ~path:seg7 with
  | [ e; o; s; n ], Wal.Clean ->
      check "epoch frame" "4501000000000000000500000000000000616c706861" e;
      check "op frame" "4f01000000000000007302000000000000000300000000000000efcdab896745230102000000000000006f70" o;
      check "seal frame" "5301000000000000007302000000000000000300000000000000feffffffffffffff0400000000000000" s;
      check "snapshot frame" "4e010000000000000073050000000000000003000000000000000200000000000000736e" n
  | rs, t -> Alcotest.failf "ship segment: %d records, tail %s" (List.length rs) (Wal.tail_string t));
  (* session directory, WAL segment and snapshot generation names *)
  let sd = Filename.concat root "state" in
  let mgr = Durable.create (Durable.config ~state_dir:sd ~wal_sync:false Registry.Boolean) in
  let sid = "a/b c" in
  let _ = Durable.open_session mgr ~sid tc_src in
  for _ = 1 to 3 do
    Durable.compact mgr ~sid
  done;
  Durable.assert_fact mgr ~sid ~pred:"edge" (pair 1 2);
  let sdir = Filename.concat (Filename.concat sd "sessions") "s-a%2Fb%20c" in
  exists "session dir name" sdir;
  exists "wal segment name" (Filename.concat sdir "wal-000000003.log");
  exists "snapshot generation name" (Filename.concat (Filename.concat sdir "snap") "snapshot-000000002.ckpt");
  let fol = Replica.Follower.create ~dir:ship ~fid:"f/1 x" ~mgr () in
  exists "ack log name" (Filename.concat ship "ack-f%2F1%20x.log");
  Replica.Follower.close fol;
  Durable.shutdown mgr;
  rm_rf root

let suite =
  [
    Alcotest.test_case "wal roundtrip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal truncation at every byte" `Quick test_wal_truncation_every_byte;
    Alcotest.test_case "wal byte flip" `Quick test_wal_byte_flip;
    Alcotest.test_case "recover basic" `Quick test_recover_basic;
    Alcotest.test_case "kill at any byte" `Quick test_kill_at_any_byte;
    Alcotest.test_case "idempotent replay" `Quick test_idempotent_replay;
    Alcotest.test_case "snapshot generation fallback" `Quick test_snapshot_generation_fallback;
    Alcotest.test_case "corrupt segment quarantine" `Quick test_corrupt_segment_quarantine;
    Alcotest.test_case "eviction lru cap" `Quick test_eviction_lru_cap;
    Alcotest.test_case "eviction idle ttl" `Quick test_eviction_idle_ttl;
    Alcotest.test_case "close drains in-flight query" `Quick test_close_drains_inflight_query;
    Alcotest.test_case "validate before log" `Quick test_validate_before_log;
    Alcotest.test_case "ephemeral registry" `Quick test_ephemeral_registry;
    Alcotest.test_case "wal sync_now raises on a failed fsync" `Quick test_wal_sync_now_raises;
    Alcotest.test_case "close fsync failure quarantines the session" `Quick
      test_close_fsync_failure_quarantines;
    Alcotest.test_case "on-disk format golden" `Quick test_format_golden;
    Alcotest.test_case "failed append truncates its torn tail" `Quick
      test_failed_append_truncates_torn_tail;
    Alcotest.test_case "unwritable segment quarantines the session" `Quick
      test_unwritable_segment_quarantines;
    Alcotest.test_case "rehydration keeps the entry it loads" `Quick
      test_rehydrate_keeps_its_entry;
    Alcotest.test_case "snapshot failure keeps the committed op" `Quick
      test_snapshot_failure_keeps_committed_op;
    Alcotest.test_case "close of a spilled session keeps its stats" `Quick
      test_close_spilled_keeps_stats;
    Alcotest.test_case "failed spill keeps the session live" `Quick
      test_failed_spill_keeps_session_live;
    Alcotest.test_case "failed append keeps pending fsyncs" `Quick
      test_failed_append_keeps_pending_fsyncs;
    Alcotest.test_case "a running query stalls no write and no session" `Quick
      test_query_stalls_nothing;
  ]
