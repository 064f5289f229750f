(** Replicated durable sessions ({!Scallop_incr.Replica} over
    {!Scallop_incr.Durable}): WAL shipping into hot standbys, quorum
    acknowledgement, kill-the-primary-at-any-point failover bit-identity,
    torn/damaged ship segments, follower lag past segment pruning
    (snapshot-transfer fallback), divergence quarantine, fencing (double
    promotion and deposed-primary write refusal), WAL group commit, the
    [scrub] bit-rot sweep, fuzzing of the serve line protocol, and its
    bounded line reader against the byte-at-a-time oracle. *)

open Scallop_core
module Durable = Scallop_incr.Durable
module Replica = Scallop_incr.Replica
module Protocol = Scallop_serve.Protocol
module Wal = Scallop_utils.Wal
module Atomic_io = Scallop_utils.Atomic_io

(* shared helpers from the durability suite *)
let tc_src = Test_durability.tc_src
let pair = Test_durability.pair
let results_equal = Test_durability.results_equal
let rm_rf = Test_durability.rm_rf
let read_bytes = Test_durability.read_bytes
let write_bytes = Test_durability.write_bytes
let flip_byte = Test_durability.flip_byte

let scratch_counter = ref 0

let scratch_dir () =
  incr scratch_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "scallop-replication-%d-%d" (Unix.getpid ()) !scratch_counter)
  in
  rm_rf d;
  Atomic_io.mkdir_p d;
  d

let q mgr sid = Durable.query mgr ~sid ()

(* ---- an in-process primary/follower pair ---------------------------------------- *)

type cluster = {
  root : string;
  pmgr : Durable.t;
  fmgr : Durable.t;
  prim : Replica.Primary.t;
  fol : Replica.Follower.t;
}

(* The primary's quorum barrier drives the follower in-process through the
   [pump] hook, so a quorum-acknowledged op has deterministically been
   applied AND locally logged by the follower before the primary's update
   call returns — no polling loops, no sleeps. *)
let make_cluster ?(ack = Replica.Ack_quorum) ?(ack_timeout = 10.0) ?(segment_frames = 4096)
    ?(retain = 2) ?(snapshot_every = 64) () : cluster =
  let root = scratch_dir () in
  let ship = Filename.concat root "ship" in
  let fmgr =
    Durable.create
      (Durable.config ~state_dir:(Filename.concat root "f") ~wal_sync:false ~snapshot_every
         Registry.Boolean)
  in
  let fol_ref = ref None in
  let pump () = match !fol_ref with Some f -> ignore (Replica.Follower.poll f) | None -> () in
  let prim =
    Replica.Primary.create ~dir:ship ~id:"alpha" ~ack ~cluster:1 ~ack_timeout ~segment_frames
      ~retain ~pump ()
  in
  let pmgr =
    Durable.create
      (Durable.config ~state_dir:(Filename.concat root "p") ~wal_sync:false ~snapshot_every
         ~repl:(Replica.Primary.sink prim) Registry.Boolean)
  in
  let fol = Replica.Follower.create ~dir:ship ~fid:"beta" ~mgr:fmgr () in
  fol_ref := Some fol;
  { root; pmgr; fmgr; prim; fol }

let destroy c =
  Durable.shutdown c.pmgr;
  Durable.shutdown c.fmgr;
  Replica.Primary.close c.prim;
  Replica.Follower.close c.fol;
  rm_rf c.root

(* A mixed update script whose retracts make replay order-sensitive:
   double-applying or dropping any one op changes the answer. *)
type sop = Open | A of int * int | R of int * int

let script =
  [
    Open; A (0, 1); A (1, 2); A (2, 3); R (1, 2); A (1, 3); A (3, 4); R (2, 3); A (2, 4);
    A (4, 5); R (0, 1); A (0, 5);
  ]

let apply mgr op =
  match op with
  | Open -> ignore (Durable.open_session mgr ~sid:"s" tc_src)
  | A (a, b) -> Durable.assert_fact mgr ~sid:"s" ~pred:"edge" (pair a b)
  | R (a, b) -> Durable.retract_fact mgr ~sid:"s" ~pred:"edge" (pair a b)

(* Single-node oracle: an ephemeral registry executing the same prefix. *)
let oracle prefix =
  let mgr = Durable.create (Durable.config Registry.Boolean) in
  List.iter (apply mgr) prefix;
  let r = q mgr "s" in
  Durable.shutdown mgr;
  r

let take k l = List.filteri (fun i _ -> i < k) l
let drop k l = List.filteri (fun i _ -> i >= k) l

(* ---- failover bit-identity ------------------------------------------------------- *)

(* Kill the primary after EVERY quorum-acknowledged prefix of the script:
   promote the follower and its answers must be bit-identical to a
   single-node run of exactly that prefix (no acknowledged update lost, no
   phantom update), and the promoted node must keep accepting the rest of
   the script, converging on the full-script oracle.  [snapshot_every:3]
   pushes compactions — seal and snapshot frames — through the stream
   mid-sweep. *)
let test_failover_at_every_acked_prefix () =
  let n = List.length script in
  for cut = 0 to n do
    let c = make_cluster ~snapshot_every:3 () in
    List.iter (apply c.pmgr) (take cut script);
    (* primary dies here: nothing of it is consulted again *)
    let _epoch = Replica.Follower.promote c.fol in
    (if cut = 0 then begin
       (* the open was never acknowledged: no session may surface *)
       let counts = Durable.session_counts c.fmgr in
       if counts.Durable.live + counts.Durable.spilled + counts.Durable.failed > 0 then
         Alcotest.failf "cut 0: phantom session on the promoted follower"
     end
     else begin
       let got = q c.fmgr "s" in
       if not (results_equal got (oracle (take cut script))) then
         Alcotest.failf "cut %d: promoted follower diverges from the acked-prefix oracle" cut;
       let st = Replica.Follower.status c.fol in
       Alcotest.(check int)
         (Printf.sprintf "cut %d: no divergences" cut)
         0 st.Replica.Follower.st_divergences
     end);
    (* life goes on: the promoted node takes the rest of the script *)
    List.iter (apply c.fmgr) (drop cut script);
    let got = q c.fmgr "s" in
    if not (results_equal got (oracle script)) then
      Alcotest.failf "cut %d: continued run diverges from the full-script oracle" cut;
    destroy c
  done

(* ---- damaged ship logs ------------------------------------------------------------ *)

(* A primary killed mid-ship leaves a torn final frame.  The follower must
   apply the complete prefix, hold the tear back without error, and a
   promotion then serves exactly the surviving prefix. *)
let test_torn_ship_frame () =
  let c = make_cluster ~ack:Replica.Ack_none () in
  List.iter (apply c.pmgr) [ Open; A (0, 1); A (1, 2); A (2, 3) ];
  (* cut into the last shipped frame — the crash signature of a dying
     primary (the follower has not polled yet) *)
  let seg = List.hd (List.rev (Replica.Ship.list ~dir:(Filename.concat c.root "ship"))) in
  let path = Replica.Ship.path ~dir:(Filename.concat c.root "ship") seg in
  let full = read_bytes path in
  write_bytes path (String.sub full 0 (String.length full - 3));
  ignore (Replica.Follower.poll c.fol);
  let st = Replica.Follower.status c.fol in
  Alcotest.(check int) "no divergence from a torn tail" 0 st.Replica.Follower.st_divergences;
  Alcotest.(check (option string)) "no error from a torn tail" None st.st_last_error;
  let _ = Replica.Follower.promote c.fol in
  let got = q c.fmgr "s" in
  if not (results_equal got (oracle [ Open; A (0, 1); A (1, 2) ])) then
    Alcotest.fail "torn tail: follower should serve the complete-frame prefix";
  destroy c

(* Mid-segment damage (bit rot, not a tear) errors the tail without
   crashing, and the next rotation barrier — every new ship segment opens
   with snapshots of all live sessions — resyncs the follower via a full
   snapshot transfer. *)
let test_damaged_ship_segment_resync () =
  let c = make_cluster ~ack:Replica.Ack_none () in
  List.iter (apply c.pmgr) [ Open; A (0, 1); A (1, 2); A (2, 3); R (1, 2) ];
  let ship = Filename.concat c.root "ship" in
  let seg = List.hd (List.rev (Replica.Ship.list ~dir:ship)) in
  flip_byte (Replica.Ship.path ~dir:ship seg) 25 (* inside the segment's first frame *);
  ignore (Replica.Follower.poll c.fol);
  let st = Replica.Follower.status c.fol in
  (match st.Replica.Follower.st_last_error with
  | Some _ -> ()
  | None -> Alcotest.fail "mid-segment damage should surface as a tail error");
  Alcotest.(check int) "nothing applied off a damaged segment" 0 st.st_applied;
  (* the primary rotates (as it does at startup and every N frames) … *)
  Durable.ship_barrier c.pmgr;
  (* … and the follower jumps to the fresh segment and snapshot-installs *)
  ignore (Replica.Follower.poll c.fol);
  let st = Replica.Follower.status c.fol in
  if st.Replica.Follower.st_installs + st.st_adoptions < 1 then
    Alcotest.fail "resync after damage should go through a snapshot";
  let _ = Replica.Follower.promote c.fol in
  let got = q c.fmgr "s" in
  if not (results_equal got (oracle [ Open; A (0, 1); A (1, 2); A (2, 3); R (1, 2) ])) then
    Alcotest.fail "post-resync follower diverges";
  destroy c

(* A follower that attaches after the primary has rotated and pruned past
   its position cannot replay op-by-op; the barrier snapshots heading the
   retained segment must bridge it. *)
let test_lag_past_pruning_snapshot_transfer () =
  let c = make_cluster ~ack:Replica.Ack_none ~segment_frames:4 ~retain:0 ~snapshot_every:4 () in
  List.iter (apply c.pmgr) script;
  let ship = Filename.concat c.root "ship" in
  let pst = Replica.Primary.status c.prim in
  if pst.Replica.Primary.st_rotations < 1 then
    Alcotest.fail "test needs rotation to have happened";
  if List.length (Replica.Ship.list ~dir:ship) > 2 then
    Alcotest.fail "retain=0 should prune everything below the active segment";
  (* a brand-new follower, far behind the stream's beginning *)
  let late_state = Filename.concat c.root "late" in
  let lmgr =
    Durable.create (Durable.config ~state_dir:late_state ~wal_sync:false Registry.Boolean)
  in
  let late = Replica.Follower.create ~dir:ship ~fid:"late" ~mgr:lmgr () in
  ignore (Replica.Follower.poll late);
  let st = Replica.Follower.status late in
  if st.Replica.Follower.st_installs < 1 then
    Alcotest.fail "late join must fall back to a snapshot transfer";
  Alcotest.(check int) "late join sees no divergence" 0 st.st_divergences;
  let _ = Replica.Follower.promote late in
  let got = q lmgr "s" in
  if not (results_equal got (oracle script)) then
    Alcotest.fail "late-joined follower diverges from the full-script oracle";
  Durable.shutdown lmgr;
  Replica.Follower.close late;
  destroy c

(* ---- divergence quarantine -------------------------------------------------------- *)

(* A replicated op that does not extend the follower's state — wrong lsn
   chain, wrong segment, a retract that no longer validates — must
   quarantine exactly that session with the typed diagnostic, and a later
   snapshot transfer must heal it. *)
let test_divergence_quarantine_and_heal () =
  (* session "s"'s next lsn and active segment on the follower *)
  let watermark mgr =
    match List.find_opt (fun (sid, _, _) -> sid = "s") (Durable.session_watermarks mgr) with
    | Some (_, next_lsn, seg) -> (next_lsn, seg)
    | None -> Alcotest.fail "follower should know the session"
  in
  let c = make_cluster () in
  List.iter (apply c.pmgr) [ Open; A (0, 1); A (1, 2) ];
  let next_lsn, seg = watermark c.fmgr in
  (* forge a frame at the right position but with a poisoned checksum
     chain: the splice point where a forked history would graft on *)
  let payload =
    Durable.encode_op
      (Durable.Op_assert
         { lsn = next_lsn; pred = "edge"; input = Provenance.Input.none; tuple = pair 7 7 })
  in
  (match Durable.apply_remote c.fmgr ~sid:"s" ~seg ~lsn:next_lsn ~chain:0xDEADL ~payload with
  | _ -> Alcotest.fail "chain mismatch must diverge"
  | exception Session.Error (Exec_error.Replication_diverged { session = "s"; reason; _ }) ->
      if String.length reason = 0 then Alcotest.fail "empty divergence reason"
  | exception Session.Error e ->
      Alcotest.failf "expected Replication_diverged, got %s" (Session.error_string e));
  Alcotest.(check int) "divergence counted" 1 (Durable.stats c.fmgr).Durable.divergences;
  (* the session is quarantined — the typed divergence survives to the
     query — while the registry lives on *)
  (match q c.fmgr "s" with
  | _ -> Alcotest.fail "query on a diverged session should fail"
  | exception Session.Error (Exec_error.Replication_diverged _) -> ());
  (* a seal the replay has not reached only shows missed frames ... *)
  let c2 = make_cluster () in
  List.iter (apply c2.pmgr) [ Open; A (0, 1) ];
  let next_lsn2, seg2 = watermark c2.fmgr in
  (match
     Durable.seal_remote c2.fmgr ~sid:"s" ~seg:seg2 ~last_lsn:(next_lsn2 + 5) ~chain:0L
       ~records:99
   with
  | Durable.Gap -> ()
  | _ -> Alcotest.fail "a seal ahead of the replay is a gap"
  | exception Session.Error e ->
      Alcotest.failf "a seal ahead of the replay diverged: %s" (Session.error_string e));
  (* ... but one that contradicts the replay at its own lsn is a divergence *)
  (match
     Durable.seal_remote c2.fmgr ~sid:"s" ~seg:seg2 ~last_lsn:(next_lsn2 - 1) ~chain:0L
       ~records:99
   with
  | _ -> Alcotest.fail "contradictory seal must diverge"
  | exception Session.Error (Exec_error.Replication_diverged _) -> ());
  destroy c2;
  (* healing: the primary compacts, the snapshot frame rebuilds the
     quarantined session from scratch *)
  Durable.compact c.pmgr ~sid:"s";
  ignore (Replica.Follower.poll c.fol);
  let st = Replica.Follower.status c.fol in
  if st.Replica.Follower.st_installs < 1 then
    Alcotest.fail "snapshot transfer should heal the quarantined session";
  let _ = Replica.Follower.promote c.fol in
  let got = q c.fmgr "s" in
  if not (results_equal got (oracle [ Open; A (0, 1); A (1, 2) ])) then
    Alcotest.fail "healed session diverges from the oracle";
  destroy c

(* ---- fencing ----------------------------------------------------------------------- *)

(* Promotion claims a strictly newer epoch: a second promotion attempting
   to (re)claim a stale epoch is rejected with the typed error — two
   primaries can never share an epoch. *)
let test_double_promotion_fenced () =
  let c = make_cluster ~ack:Replica.Ack_none () in
  List.iter (apply c.pmgr) [ Open; A (0, 1) ];
  let gmgr = Durable.create (Durable.config ~state_dir:(Filename.concat c.root "g") ~wal_sync:false Registry.Boolean) in
  let gamma = Replica.Follower.create ~dir:(Filename.concat c.root "ship") ~fid:"gamma" ~mgr:gmgr () in
  let e1 = Replica.Follower.promote c.fol in
  (match Replica.Follower.promote ~epoch:e1 gamma with
  | _ -> Alcotest.fail "promotion with the reigning epoch must be fenced"
  | exception Session.Error (Exec_error.Fenced { epoch; current }) ->
      Alcotest.(check int) "attempted epoch" e1 epoch;
      Alcotest.(check int) "reigning epoch" e1 current);
  (match Replica.Follower.promote ~epoch:(e1 - 1) gamma with
  | _ -> Alcotest.fail "promotion with a stale epoch must be fenced"
  | exception Session.Error (Exec_error.Fenced _) -> ());
  (* promoting the same follower twice is a protocol error *)
  (match Replica.Follower.promote c.fol with
  | _ -> Alcotest.fail "double promote of one follower should fail"
  | exception Session.Error (Exec_error.Invalid_input _) -> ());
  Durable.shutdown gmgr;
  Replica.Follower.close gamma;
  destroy c

(* After a follower promotes, the deposed primary's next acknowledgement
   barrier observes the fencing epoch and fails the write with the typed
   error — it can never acknowledge an update the new primary lacks. *)
let test_deposed_primary_refuses_writes () =
  let c = make_cluster () in
  List.iter (apply c.pmgr) [ Open; A (0, 1) ];
  let _e = Replica.Follower.promote c.fol in
  (match apply c.pmgr (A (1, 2)) with
  | _ -> Alcotest.fail "deposed primary must not acknowledge writes"
  | exception Session.Error (Exec_error.Fenced { epoch = 1; current = 2 }) -> ()
  | exception Session.Error e ->
      Alcotest.failf "expected Fenced 1 -> 2, got %s" (Session.error_string e));
  (* permanently: later writes fail the same way *)
  (match apply c.pmgr (A (2, 3)) with
  | _ -> Alcotest.fail "fencing must be sticky"
  | exception Session.Error (Exec_error.Fenced _) -> ());
  (* the promoted follower, not the deposed primary, owns the tail *)
  List.iter (apply c.fmgr) [ A (1, 2) ];
  let got = q c.fmgr "s" in
  if not (results_equal got (oracle [ Open; A (0, 1); A (1, 2) ])) then
    Alcotest.fail "promoted follower state wrong after fencing";
  destroy c

(* With no follower acking, a quorum write must fail with the typed
   ack-timeout rather than hang. *)
let test_quorum_ack_timeout () =
  let root = scratch_dir () in
  let prim =
    Replica.Primary.create ~dir:(Filename.concat root "ship") ~id:"alpha"
      ~ack:Replica.Ack_quorum ~cluster:1 ~ack_timeout:0.05 ()
  in
  let pmgr =
    Durable.create
      (Durable.config ~state_dir:(Filename.concat root "p") ~wal_sync:false
         ~repl:(Replica.Primary.sink prim) Registry.Boolean)
  in
  (match Durable.open_session pmgr ~sid:"s" tc_src with
  | _ -> Alcotest.fail "quorum with zero followers must time out"
  | exception Session.Error (Exec_error.Ack_timeout { acked = 0; quorum = 1; waited }) ->
      if waited < 0.05 then Alcotest.fail "timed out before the deadline"
  | exception Session.Error e ->
      Alcotest.failf "expected Ack_timeout, got %s" (Session.error_string e));
  Durable.shutdown pmgr;
  Replica.Primary.close prim;
  rm_rf root

(* ---- WAL group commit -------------------------------------------------------------- *)

(* Two appends to one log settled by one wait must cost exactly one fsync:
   the deterministic core of group commit's amortization. *)
let test_group_commit_amortizes_fsyncs () =
  let dir = scratch_dir () in
  let g = Wal.Group.create () in
  let w = Wal.open_append ~group:g ~path:(Filename.concat dir "w.log") () in
  let t1 = Wal.append_ticket w "first" in
  let t2 = Wal.append_ticket w "second" in
  (match (t1, t2) with
  | Some t1, Some t2 ->
      Wal.Group.wait g t2;
      Wal.Group.wait g t1 (* already covered: must not fsync again *)
  | _ -> Alcotest.fail "grouped appends should return tickets");
  let syncs, appends = Wal.Group.stats g in
  Alcotest.(check int) "appends" 2 appends;
  Alcotest.(check int) "one fsync for the batch" 1 syncs;
  Wal.close w;
  let records, tail = Wal.read ~path:(Filename.concat dir "w.log") in
  Alcotest.(check (list string)) "records durable" [ "first"; "second" ] records;
  (match tail with Wal.Clean -> () | t -> Alcotest.failf "tail %s" (Wal.tail_string t));
  rm_rf dir

(* Concurrent sessions under one group: all records land, every log is
   clean, and the batched fsync count never exceeds (and in practice is
   far below) one per append. *)
let test_group_commit_concurrent_writers () =
  let dir = scratch_dir () in
  let g = Wal.Group.create () in
  let writers =
    Array.init 4 (fun i ->
        Wal.open_append ~group:g ~path:(Filename.concat dir (Printf.sprintf "w%d.log" i)) ())
  in
  let domains =
    Array.map
      (fun w ->
        Domain.spawn (fun () ->
            for k = 1 to 40 do
              Wal.append w (Printf.sprintf "rec-%d" k)
            done))
      writers
  in
  Array.iter Domain.join domains;
  Array.iter Wal.close writers;
  let syncs, appends = Wal.Group.stats g in
  Alcotest.(check int) "all appends accounted" 160 appends;
  if syncs > appends then Alcotest.failf "group commit made MORE fsyncs (%d) than appends" syncs;
  Array.iteri
    (fun i _ ->
      let records, tail = Wal.read ~path:(Filename.concat dir (Printf.sprintf "w%d.log" i)) in
      Alcotest.(check int) (Printf.sprintf "w%d records" i) 40 (List.length records);
      match tail with
      | Wal.Clean -> ()
      | t -> Alcotest.failf "w%d tail %s" i (Wal.tail_string t))
    writers;
  rm_rf dir

(* Group commit through the registry: same answers, same recovery story —
   it only changes how fsyncs are scheduled, including for [close]'s final
   record (flushed by the writer hand-off, not a group leader). *)
let test_group_commit_durable_roundtrip () =
  let sd = scratch_dir () in
  let cfg sd =
    Durable.config ~state_dir:sd ~wal_sync:true ~group_commit:true Registry.Boolean
  in
  let mgr = Durable.create (cfg sd) in
  List.iter (apply mgr) [ Open; A (0, 1); A (1, 2); R (0, 1); A (2, 3) ];
  let expected = q mgr "s" in
  Durable.shutdown mgr;
  let mgr2 = Durable.create (cfg sd) in
  Alcotest.(check int) "recovered" 1 (Durable.stats mgr2).Durable.recovered;
  let got = q mgr2 "s" in
  if not (results_equal got expected) then Alcotest.fail "group-commit recovery diverges";
  let _ = Durable.close mgr2 ~sid:"s" in
  Durable.shutdown mgr2;
  rm_rf sd

(* A failed group fsync must fail every ticket that flush covered, exactly
   as an inline fsync raises — never settle them as durable.  fsync on a
   pipe fails (EINVAL on Linux), so a pipe's write end stands in for a
   disk that refuses to flush. *)
let test_group_commit_fsync_failure () =
  let r, w = Unix.pipe () in
  let g = Wal.Group.create () in
  let t1 = Wal.Group.register g w in
  let t2 = Wal.Group.register g w in
  let raises what tk =
    match Wal.Group.wait g tk with
    | () -> Alcotest.failf "%s: a failed fsync settled the ticket as durable" what
    | exception Unix.Unix_error _ -> ()
  in
  raises "leader" t2;
  raises "covered waiter" t1;
  (* a later flush that succeeds settles its own tickets normally *)
  let dir = scratch_dir () in
  let fd = Unix.openfile (Filename.concat dir "ok.log") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Wal.Group.wait g (Wal.Group.register g fd);
  raises "covered waiter, asked again" t1;
  List.iter Unix.close [ r; w; fd ];
  rm_rf dir

(* A promotion whose fencing ack cannot be made durable fails typed and
   leaves the node a standby.  The ack log's descriptor is replaced by a
   pipe, on which fsync fails; the pipe stays open until the follower has
   closed it. *)
let test_promote_fsync_failure () =
  let c = make_cluster ~ack:Replica.Ack_none () in
  List.iter (apply c.pmgr) [ Open; A (0, 1) ];
  let r, w = Unix.pipe () in
  Unix.dup2 w c.fol.Replica.Follower.ack.Wal.fd;
  (match Replica.Follower.promote c.fol with
  | _ -> Alcotest.fail "promotion reported success for a fence ack that is not on disk"
  | exception Session.Error (Exec_error.Runtime_error _) -> ());
  Alcotest.(check bool) "still a standby" true (Durable.is_standby c.fmgr);
  Alcotest.(check bool) "not promoted" false
    (Replica.Follower.status c.fol).Replica.Follower.st_promoted;
  destroy c;
  List.iter Unix.close [ r; w ]

(* ---- the shared write path ----------------------------------------------------------- *)

(* Every file under [dir], as (path relative to [dir], bytes), sorted. *)
let rec files_under dir rel =
  Sys.readdir (Filename.concat dir rel)
  |> Array.to_list |> List.sort compare
  |> List.concat_map (fun e ->
         let r = if rel = "" then e else Filename.concat rel e in
         if Sys.is_directory (Filename.concat dir r) then files_under dir r
         else [ (r, read_bytes (Filename.concat dir r)) ])

(* Follower segments and snapshots are byte-identical to the primary's:
   both write them through the same log step and rotation. *)
let test_follower_files_byte_identical () =
  let c = make_cluster ~snapshot_every:3 () in
  List.iter
    (fun sid ->
      List.iter
        (function
          | Open -> ignore (Durable.open_session c.pmgr ~sid tc_src)
          | A (a, b) -> Durable.assert_fact c.pmgr ~sid ~pred:"edge" (pair a b)
          | R (a, b) -> Durable.retract_fact c.pmgr ~sid ~pred:"edge" (pair a b))
        script)
    [ "s"; "t" ];
  ignore (Durable.close c.pmgr ~sid:"t");
  let sessions node = Filename.concat (Filename.concat c.root node) "sessions" in
  let primary = files_under (sessions "p") "" and follower = files_under (sessions "f") "" in
  Alcotest.(check (list string)) "same files" (List.map fst primary) (List.map fst follower);
  List.iter2
    (fun (name, p) (_, f) -> if not (String.equal p f) then Alcotest.failf "%s differs" name)
    primary follower;
  destroy c

(* A ship-log write that fails after the session's own append cannot undo
   the op: it is applied and its lsn consumed, so the live session answers
   what a restart recovers. *)
let test_ship_failure_keeps_committed_op () =
  let c = make_cluster () in
  List.iter (apply c.pmgr) [ Open; A (0, 1); A (1, 2) ];
  let ship_fd = c.prim.Replica.Primary.wal.Wal.fd in
  let saved = Unix.dup ship_fd in
  let ro =
    Unix.openfile (Filename.concat c.root "read-only") [ Unix.O_RDONLY; Unix.O_CREAT ] 0o644
  in
  Unix.dup2 ro ship_fd;
  Unix.close ro;
  (match apply c.pmgr (A (2, 3)) with
  | () -> Alcotest.fail "an op whose ship write failed was acknowledged"
  | exception Session.Error _ -> ());
  Unix.dup2 saved ship_fd;
  Unix.close saved;
  let live = q c.pmgr "s" in
  let restarted =
    Durable.create
      (Durable.config ~state_dir:(Filename.concat c.root "p") ~wal_sync:false Registry.Boolean)
  in
  if not (results_equal live (q restarted "s")) then
    Alcotest.fail "the live session and its restart disagree";
  Durable.shutdown restarted;
  destroy c

(* A failed ship-log append finishes its segment.  The op replies a typed
   error; the next op first rotates the ship log, and the barrier snapshots
   heading the fresh segment bring the follower to the primary's state,
   though the segment is far from its size-triggered rotation. *)
let test_failed_ship_append_rotates () =
  let c = make_cluster () in
  List.iter (apply c.pmgr) [ Open; A (0, 1); A (1, 2) ];
  let rotations () = (Replica.Primary.status c.prim).Replica.Primary.st_rotations in
  let before = rotations () in
  let ship_fd = c.prim.Replica.Primary.wal.Wal.fd in
  let saved = Unix.dup ship_fd in
  let ro =
    Unix.openfile (Filename.concat c.root "read-only") [ Unix.O_RDONLY; Unix.O_CREAT ] 0o644
  in
  Unix.dup2 ro ship_fd;
  Unix.close ro;
  (match apply c.pmgr (A (2, 3)) with
  | () -> Alcotest.fail "an op whose ship append failed was acknowledged"
  | exception Session.Error (Exec_error.Runtime_error _) -> ());
  Unix.dup2 saved ship_fd;
  Unix.close saved;
  (match apply c.pmgr (A (3, 4)) with
  | () -> ()
  | exception Session.Error e ->
      Alcotest.failf "the op after the failed append: %s" (Session.error_string e));
  Alcotest.(check int) "one rotation, past the failed segment" (before + 1) (rotations ());
  Alcotest.(check int) "no session parked on the follower" 0
    (Replica.Follower.status c.fol).Replica.Follower.st_awaiting;
  if not (results_equal (q c.fmgr "s") (q c.pmgr "s")) then
    Alcotest.fail "the follower's answers differ from the primary's";
  destroy c

(* Run [f] while appends through [fd] fail: a read-only descriptor on
   [root]/read-only stands in for a disk that refuses the write. *)
let with_failing_appends root fd f =
  let saved = Unix.dup fd in
  let ro =
    Unix.openfile (Filename.concat root "read-only") [ Unix.O_RDONLY; Unix.O_CREAT ] 0o644
  in
  Unix.dup2 ro fd;
  Unix.close ro;
  Fun.protect
    ~finally:(fun () ->
      Unix.dup2 saved fd;
      Unix.close saved)
    f

(* A follower that missed the frame of a failed ship append is lagging,
   not diverged.  The seal heading the fresh ship segment is past its
   replay, so it parks the session for the snapshot after the seal, which
   reinstalls it: no divergence is counted and nothing is quarantined. *)
let test_missed_frame_is_lag () =
  let c = make_cluster () in
  List.iter (apply c.pmgr) [ Open; A (0, 1); A (1, 2) ];
  with_failing_appends c.root c.prim.Replica.Primary.wal.Wal.fd (fun () ->
      match apply c.pmgr (A (2, 3)) with
      | () -> Alcotest.fail "an op whose ship append failed was acknowledged"
      | exception Session.Error _ -> ());
  apply c.pmgr (A (3, 4));
  let st = Replica.Follower.status c.fol in
  Alcotest.(check int) "no divergence on the follower" 0 st.Replica.Follower.st_divergences;
  Alcotest.(check int) "none in the registry" 0 (Durable.stats c.fmgr).Durable.divergences;
  Alcotest.(check (option string)) "no error" None st.st_last_error;
  if st.st_installs < 1 then Alcotest.fail "the snapshot after the seal should reinstall it";
  if not (results_equal (q c.fmgr "s") (q c.pmgr "s")) then
    Alcotest.fail "the follower's answers differ from the primary's";
  destroy c

(* A follower's replay never waits for its standby's queries: [poll]
   applies the primary's assert to [s] while a long query on the
   follower's [s] runs, and returns before that query is half done. *)
let test_replay_passes_standby_queries () =
  let n = 500 in
  let c = make_cluster ~ack:Replica.Ack_none () in
  ignore (Durable.open_session c.pmgr ~sid:"s" (Test_durability.chain_src n));
  ignore (Replica.Follower.poll c.fol);
  let t0, join = Test_durability.start_query (fun () -> q c.fmgr "s") in
  Durable.assert_fact c.pmgr ~sid:"s" ~pred:"edge" (pair n (n + 1));
  let applied () = (Replica.Follower.status c.fol).Replica.Follower.st_applied in
  let before = applied () in
  ignore (Replica.Follower.poll c.fol);
  let polled = Unix.gettimeofday () in
  Alcotest.(check int) "the assert is applied" (before + 1) (applied ());
  let r, elapsed = join () in
  Test_durability.check_before_half "the replay" ~t0 polled elapsed;
  Alcotest.(check int) "the query answers the facts it started with" (n * (n + 1) / 2)
    (Test_durability.path_count r);
  destroy c

(* A failed ack-log append must not stall quorum acks.  Torn bytes end the
   follower's ack log and the primary has read them; then one append
   fails.  The next ack goes to a fresh log, which the primary reads from
   its first byte, so the next quorum write is acknowledged in time. *)
let test_failed_ack_append_keeps_quorum () =
  let c = make_cluster ~ack_timeout:0.5 () in
  List.iter (apply c.pmgr) [ Open; A (0, 1) ];
  let ack_log = Replica.ack_path (Filename.concat c.root "ship") "beta" in
  (* a record cut short: its whole header, then 2 of its 4 payload bytes *)
  let torn = Bytes.create (Wal.record_header_len + 2) in
  Bytes.set_int32_le torn 0 4l;
  Bytes.set_int64_le torn 4 (Atomic_io.fnv1a64 "torn");
  Bytes.blit_string "to" 0 torn Wal.record_header_len 2;
  let fd = Unix.openfile ack_log [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
  ignore (Unix.write fd torn 0 (Bytes.length torn));
  Unix.close fd;
  ignore (Replica.Primary.status c.prim);
  (* a ship-log rotation gives the follower frames to ack with no write
     waiting on them; its ack append fails *)
  Durable.ship_barrier c.pmgr;
  with_failing_appends c.root c.fol.Replica.Follower.ack.Wal.fd (fun () ->
      match Replica.Follower.poll c.fol with
      | _ -> Alcotest.fail "an ack append through a read-only descriptor succeeded"
      | exception Session.Error _ -> ());
  (match apply c.pmgr (A (1, 2)) with
  | () -> ()
  | exception Session.Error e ->
      Alcotest.failf "the quorum write after a failed ack append: %s" (Session.error_string e));
  if not (results_equal (q c.fmgr "s") (q c.pmgr "s")) then
    Alcotest.fail "the follower's answers differ from the primary's";
  destroy c

(* A follower whose ack append failed has applied the frames it could not
   acknowledge.  Its next poll finds no new frame, and must still send
   that ack, or the quorum write those frames carry waits out its
   timeout; the failure stays visible as the follower's last error. *)
let test_failed_ack_is_resent () =
  let c = make_cluster ~ack_timeout:0.5 () in
  List.iter (apply c.pmgr) [ Open; A (0, 1) ];
  let ack = Durable.commit_assert c.pmgr ~sid:"s" ~pred:"edge" (pair 1 2) in
  with_failing_appends c.root c.fol.Replica.Follower.ack.Wal.fd (fun () ->
      match Replica.Follower.poll c.fol with
      | _ -> Alcotest.fail "an ack append through a read-only descriptor succeeded"
      | exception Session.Error _ -> ());
  (match ack () with
  | () -> ()
  | exception Session.Error e ->
      Alcotest.failf "the quorum write whose ack append failed: %s" (Session.error_string e));
  if (Replica.Follower.status c.fol).Replica.Follower.st_last_error = None then
    Alcotest.fail "the failed ack append left no last error";
  if not (results_equal (q c.fmgr "s") (q c.pmgr "s")) then
    Alcotest.fail "the follower's answers differ from the primary's";
  destroy c

(* ---- ack codec ---------------------------------------------------------------------- *)

(* Acks decode as strictly as every other record: no trailing bytes, and a
   fence byte that is 0 or 1. *)
let test_ack_decode_strict () =
  let ack = { Replica.a_epoch = 2; a_seg = 3; a_idx = 4; a_fence = true } in
  let raw = Replica.encode_ack ack in
  if Replica.decode_ack raw <> ack then Alcotest.fail "ack round trip";
  let rejects what raw =
    match Replica.decode_ack raw with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Scallop_utils.Codec.Decode _ -> ()
  in
  rejects "trailing byte" (raw ^ "\000");
  rejects "fence byte 2" (String.sub raw 0 (String.length raw - 1) ^ "\002")

(* ---- scrub -------------------------------------------------------------------------- *)

let test_scrub_detects_bitrot () =
  let sd = scratch_dir () in
  let mgr =
    Durable.create
      (Durable.config ~state_dir:sd ~wal_sync:false ~snapshot_every:2 Registry.Boolean)
  in
  List.iter (apply mgr) [ Open; A (0, 1); A (1, 2); A (2, 3); A (3, 4) ];
  let clean = Durable.scrub mgr in
  (match clean with
  | [ r ] ->
      Alcotest.(check (list string)) "clean state scrubs clean" [] r.Durable.sc_errors;
      if r.Durable.sc_snapshots < 1 then Alcotest.fail "expected snapshots to examine"
  | l -> Alcotest.failf "expected one session report, got %d" (List.length l));
  (* rot a retained snapshot generation — scrub must flag it while the
     session keeps serving (recovery would fall back a generation) *)
  let sdir = Filename.concat (Filename.concat (Filename.concat sd "sessions") "s-s") "snap" in
  let gens = Atomic_io.Generations.list ~dir:sdir in
  flip_byte (Atomic_io.Generations.path ~dir:sdir (List.hd gens)) 40;
  let dirty = Durable.scrub mgr in
  (match dirty with
  | [ r ] ->
      if r.Durable.sc_errors = [] then Alcotest.fail "scrub missed snapshot bit rot"
  | l -> Alcotest.failf "expected one session report, got %d" (List.length l));
  if (Durable.stats mgr).Durable.scrub_errors < 1 then
    Alcotest.fail "scrub errors should land in stats";
  Alcotest.(check int) "two scrub passes counted" 2 (Durable.stats mgr).Durable.scrubs;
  let _ = q mgr "s" in
  Durable.shutdown mgr;
  rm_rf sd

(* ---- serve line-protocol hardening --------------------------------------------------- *)

let parses_totally line =
  match Protocol.parse ~max_line:4096 line with
  | Ok _ | Error _ -> ()
  | exception e ->
      Alcotest.failf "Protocol.parse raised %s on %S" (Printexc.to_string e)
        (String.sub line 0 (min 60 (String.length line)))

(* Every byte string must classify as a request or a typed error — junk
   bytes, control characters, oversized lines, truncated verb arguments —
   with no exception escaping. *)
let test_protocol_fuzz_total () =
  let seed = ref 0x2545F4914F6CDD1D in
  let rand bound =
    (* xorshift; deterministic across runs *)
    let x = !seed in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    seed := x;
    abs x mod bound
  in
  let verbs = [| "open"; "assert"; "retract"; "query"; "close"; "stats"; "scrub"; "repl" |] in
  for _ = 1 to 2000 do
    let n = rand 120 in
    let b = Bytes.create n in
    for i = 0 to n - 1 do
      Bytes.set b i (Char.chr (rand 256))
    done;
    let junk = Bytes.to_string b in
    parses_totally junk;
    (* a known verb with junk arguments — the truncated/malformed case *)
    parses_totally (verbs.(rand (Array.length verbs)) ^ " " ^ junk)
  done;
  (* targeted edges *)
  List.iter parses_totally
    [
      "";
      " ";
      "assert";
      "assert s1";
      "assert s1 edge(";
      "assert s1 0.5:edge(1,2)";
      "retract s1 0.5::edge(1,2)";
      "open";
      "open s1 hash=";
      "close a b";
      "query";
      "stats now";
      "scrub hard";
      "repl";
      "repl promote epoch=";
      "repl promote epoch=-3";
      "repl promote epoch=xyz";
      String.make 5000 'a';
      "assert \x01\x02 edge(1,2)";
      "open " ^ String.make 500 's' ^ " rel a() = b()";
    ]

let test_protocol_classification () =
  let open Protocol in
  List.iter
    (fun p ->
      match parse (Printf.sprintf "assert s1 %s::edge(1, 2)" p) with
      | Error (Exec_error.Invalid_input _) -> ()
      | _ -> Alcotest.failf "probability %s outside [0, 1] should be a typed error" p)
    [ "nan"; "inf"; "-inf"; "1.5"; "-0.5" ];
  (match parse {|assert s name("a,b")|} with
  | Ok (Assert { prob = None; pred = "name"; tuple; _ }) ->
      Alcotest.(check string) "comma inside quotes" {|("a,b")|} (Tuple.to_string tuple)
  | _ -> Alcotest.fail "quoted comma misparsed");
  (match parse {|assert s name("x::y")|} with
  | Ok (Assert { prob = None; pred = "name"; tuple; _ }) ->
      Alcotest.(check string) ":: inside quotes" {|("x::y")|} (Tuple.to_string tuple)
  | _ -> Alcotest.fail "quoted :: misparsed");
  (match parse {|assert s 0.5::pair("x::y", "a,b")|} with
  | Ok (Assert { prob = Some 0.5; pred = "pair"; tuple; _ }) ->
      Alcotest.(check string) "both, after a probability" {|("x::y", "a,b")|}
        (Tuple.to_string tuple)
  | _ -> Alcotest.fail "quoted pair misparsed");
  (match parse {|retract s name("a,b")|} with
  | Ok (Retract { pred = "name"; tuple; _ }) ->
      Alcotest.(check int) "retract: comma inside quotes" 1 (Tuple.arity tuple)
  | _ -> Alcotest.fail "quoted retract misparsed");
  (match parse "assert s1 0.5::edge(1, 2)" with
  | Ok (Assert { sid = "s1"; prob = Some 0.5; pred = "edge"; tuple }) ->
      Alcotest.(check int) "arity" 2 (Tuple.arity tuple)
  | _ -> Alcotest.fail "assert line misparsed");
  (match parse "repl promote epoch=7" with
  | Ok (Repl_promote { epoch = Some 7 }) -> ()
  | _ -> Alcotest.fail "repl promote misparsed");
  (match parse "repl status" with
  | Ok Repl_status -> ()
  | _ -> Alcotest.fail "repl status misparsed");
  (match parse "scrub" with Ok Scrub -> () | _ -> Alcotest.fail "scrub misparsed");
  (match parse "rel out(x) = edge(1, x)" with
  | Ok (Run _) -> ()
  | _ -> Alcotest.fail "non-verb line should fall through to Run");
  (match parse "assert s1" with
  | Error (Exec_error.Invalid_input _) -> ()
  | _ -> Alcotest.fail "truncated assert should be a typed error");
  (match parse "query\x00 s1" with
  | Error (Exec_error.Invalid_input _) -> ()
  | _ -> Alcotest.fail "NUL byte should be a typed error");
  (match parse ~max_line:64 (String.make 65 'q') with
  | Error (Exec_error.Invalid_input _) -> ()
  | _ -> Alcotest.fail "oversized line should be a typed error")

(* ---- the bounded line reader --------------------------------------------------------- *)

let with_input contents f =
  let path = Filename.temp_file "scallop-reader" ".txt" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> In_channel.with_open_bin path f)

let all_lines ?chunk_size ~max_line contents =
  with_input contents (fun ic ->
      let r = Protocol.reader ~max_line ?chunk_size ic in
      let rec go acc =
        match Protocol.read_line r with None -> List.rev acc | Some l -> go (l :: acc)
      in
      go [])

let all_requests ~max_line contents =
  with_input contents (fun ic ->
      let r = Protocol.reader ~max_line ic in
      let rec go acc =
        match Protocol.read_request r with None -> List.rev acc | Some q -> go (q :: acc)
      in
      go [])

(* Oracle: the obvious byte-at-a-time bounded reader. *)
let bytewise_lines ~max_line contents =
  with_input contents (fun ic ->
      let b = Buffer.create 16 in
      let rec line truncated =
        match In_channel.input_char ic with
        | None ->
            if Buffer.length b = 0 && not truncated then None
            else Some (Buffer.contents b, truncated)
        | Some '\n' -> Some (Buffer.contents b, truncated)
        | Some c ->
            if Buffer.length b >= max_line then line true
            else begin
              Buffer.add_char b c;
              line truncated
            end
      in
      let rec go acc =
        Buffer.clear b;
        match line false with None -> List.rev acc | Some l -> go (l :: acc)
      in
      go [])

let line_t = Alcotest.(pair string bool)

let test_reader_bounds () =
  let max_line = 16 in
  let exact = String.make max_line 'a' and over = String.make (max_line + 1) 'b' in
  Alcotest.check
    Alcotest.(list line_t)
    "exactly max kept whole; max + 1 truncated to max"
    [ (exact, false); (String.make max_line 'b', true) ]
    (all_lines ~max_line (exact ^ "\n" ^ over ^ "\n"));
  Alcotest.check
    Alcotest.(list line_t)
    "final line without newline; blank lines are lines"
    [ ("", false); ("x", false); ("", false); ("tail", false) ]
    (all_lines ~max_line "\nx\n\ntail");
  Alcotest.check Alcotest.(list line_t) "empty input" [] (all_lines ~max_line "");
  Alcotest.check
    Alcotest.(list line_t)
    "overflow with no newline"
    [ (exact, true) ]
    (all_lines ~max_line (exact ^ "zz"));
  (* the serve replies these lines get: blank lines are skipped, the
     oversized one is a typed error, the rest are parsed *)
  let max_line = 24 in
  let query = "query " ^ String.make (max_line - 6) 's' in
  let replies =
    List.map
      (function
        | Ok (Protocol.Query { sid; outputs = None }) -> "query " ^ sid
        | Ok _ -> "other request"
        | Error e -> "error " ^ Session.error_string e)
      (all_requests ~max_line
         ("\n  \n" ^ query ^ "\n" ^ query ^ "s\n\t\nstats\n" ^ "close a b"))
  in
  Alcotest.check
    Alcotest.(list string)
    "typed replies"
    [
      query;
      "error request line exceeds the 24-byte limit; discarded";
      "other request";
      "error close: expected 'close <sid>', got 2 arguments";
    ]
    replies

let test_reader_matches_bytewise () =
  let seed = ref 0x1F2E3D4C5B6A in
  let rand bound =
    let x = !seed in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    seed := x;
    abs x mod bound
  in
  let alphabet = "ab \n\n\r\t" in
  for _ = 1 to 300 do
    let n = rand 80 in
    let contents = String.init n (fun _ -> alphabet.[rand (String.length alphabet)]) in
    let max_line = rand 12 in
    let chunk_size = 1 + rand 9 in
    let expected = bytewise_lines ~max_line contents in
    Alcotest.check
      Alcotest.(list line_t)
      (Fmt.str "%S max=%d chunk=%d" contents max_line chunk_size)
      expected
      (all_lines ~chunk_size ~max_line contents)
  done

let suite =
  [
    Alcotest.test_case "failover at every acked prefix" `Quick
      test_failover_at_every_acked_prefix;
    Alcotest.test_case "torn ship frame" `Quick test_torn_ship_frame;
    Alcotest.test_case "damaged ship segment resync" `Quick test_damaged_ship_segment_resync;
    Alcotest.test_case "lag past pruning: snapshot transfer" `Quick
      test_lag_past_pruning_snapshot_transfer;
    Alcotest.test_case "divergence quarantine and heal" `Quick
      test_divergence_quarantine_and_heal;
    Alcotest.test_case "double promotion fenced" `Quick test_double_promotion_fenced;
    Alcotest.test_case "deposed primary refuses writes" `Quick
      test_deposed_primary_refuses_writes;
    Alcotest.test_case "quorum ack timeout" `Quick test_quorum_ack_timeout;
    Alcotest.test_case "group commit amortizes fsyncs" `Quick
      test_group_commit_amortizes_fsyncs;
    Alcotest.test_case "group commit concurrent writers" `Quick
      test_group_commit_concurrent_writers;
    Alcotest.test_case "group commit durable roundtrip" `Quick
      test_group_commit_durable_roundtrip;
    Alcotest.test_case "group commit fsync failure fails every covered waiter" `Quick
      test_group_commit_fsync_failure;
    Alcotest.test_case "promote fsync failure keeps the standby" `Quick
      test_promote_fsync_failure;
    Alcotest.test_case "ack decode is strict" `Quick test_ack_decode_strict;
    Alcotest.test_case "scrub detects bit rot" `Quick test_scrub_detects_bitrot;
    Alcotest.test_case "protocol fuzz is total" `Quick test_protocol_fuzz_total;
    Alcotest.test_case "protocol classification" `Quick test_protocol_classification;
    Alcotest.test_case "line reader bounds and typed replies" `Quick test_reader_bounds;
    Alcotest.test_case "chunked line reader = bytewise reader" `Quick
      test_reader_matches_bytewise;
    Alcotest.test_case "follower files byte-identical to the primary's" `Quick
      test_follower_files_byte_identical;
    Alcotest.test_case "ship failure keeps the committed op" `Quick
      test_ship_failure_keeps_committed_op;
    Alcotest.test_case "failed ship append rotates the ship log" `Quick
      test_failed_ship_append_rotates;
    Alcotest.test_case "a follower that missed a frame lags, not diverges" `Quick
      test_missed_frame_is_lag;
    Alcotest.test_case "failed ack append keeps quorum acks" `Quick
      test_failed_ack_append_keeps_quorum;
    Alcotest.test_case "replay passes standby queries" `Quick
      test_replay_passes_standby_queries;
    Alcotest.test_case "a failed ack is sent by the next poll" `Quick test_failed_ack_is_resent;
  ]
