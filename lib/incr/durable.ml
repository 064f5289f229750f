(** Durable stateful sessions: write-ahead logging, crash-consistent
    recovery, and idle eviction over {!Incr}.

    A {!t} manages a registry of named stateful sessions and — when given
    a [state_dir] — makes them survive process death.  The machinery:

    - {b Write-ahead log.}  Every state-changing op ([open]/[assert]/
      [retract]/[close]) is validated, appended to the session's WAL segment
      ({!Scallop_utils.Wal}: checksummed records, fsync'd before the append
      returns, torn-tail tolerant), and only then applied to the in-memory
      {!Incr.t}.  Validation-first means a logged record is always
      replayable; log-before-apply means an acknowledged op is always
      recoverable.  Ops carry a monotone per-session sequence number (lsn),
      which is what makes replay exactly-once.
    - {b Compacted snapshots.}  Every [snapshot_every] ops the session's
      current EDB overlay is serialized through {!Scallop_utils.Atomic_io}
      (atomic rename, checksummed envelope, newest [keep_snapshots]
      generations retained) and the WAL rotates to a fresh segment, so
      recovery is newest-valid-snapshot + bounded replay rather than
      full-history replay.  Segment [k] holds exactly the ops recorded
      after snapshot generation [k-1]; a recovery that falls back from a
      damaged newest snapshot to an older generation finds every op it is
      missing in the retained segments, and the lsn filter keeps the
      overlap idempotent.
    - {b Recovery.}  {!create} scans [state_dir] and rebuilds every live
      session: newest snapshot generation that both checksums and decodes,
      then the segments, replaying records with lsn beyond the snapshot.
      The contract is bit-identity: a recovered session answers [query]
      exactly as the uncrashed session would (and as {!Incr.run_cold}),
      because the rebuilt overlay, canonical assertion order, and base RNG
      are precisely the state the log describes.  A session that cannot be
      rebuilt (corrupt non-tail record, program hash mismatch against its
      pinned [expect_hash], an op that no longer replays) is quarantined as
      {!Exec_error.Recovery_failed} — a per-session error reply, never a
      process failure — and can be discarded with {!close}.
    - {b Idle eviction.}  With [max_live] / [idle_ttl] set, cold sessions
      spill: a final snapshot makes the disk state current, the in-memory
      {!Incr.t} is dropped, and the next touch transparently rehydrates.
      Sessions with queries in flight are pinned and never spilled
      mid-query; {!close} drains pins before tearing down.

    Without a [state_dir] the registry still works (including pin-draining
    close) but nothing persists and nothing is evicted. *)

open Scallop_core
module Wal = Scallop_utils.Wal
module Atomic_io = Scallop_utils.Atomic_io
module Codec = Scallop_utils.Codec

let invalid_input fmt = Session.invalid_input fmt

let recovery_failed ~session fmt =
  Fmt.kstr
    (fun reason ->
      raise (Session.Error (Exec_error.Recovery_failed { session; reason })))
    fmt

(* Filesystem faults during logging/snapshotting surface as typed runtime
   errors on the request, not process crashes. *)
let io_guard f =
  try f () with
  | Unix.Unix_error (e, op, arg) ->
      raise
        (Session.Error
           (Exec_error.Runtime_error
              { msg = Fmt.str "state-dir I/O failed: %s %s: %s" op arg (Unix.error_message e) }))
  | Sys_error msg ->
      raise (Session.Error (Exec_error.Runtime_error { msg = "state-dir I/O failed: " ^ msg }))

(* ---- value codec ------------------------------------------------------------ *)

(* Ops and snapshots are written with {!Scallop_utils.Codec}; values,
   tuples and fact inputs are encoded here on top of it.  Floats travel as
   IEEE-754 bits, so probabilities round-trip bit-exactly — part of the
   recovery contract, not a nicety. *)

let ty_code : Value.ty -> int = function
  | Value.I8 -> 0
  | Value.I16 -> 1
  | Value.I32 -> 2
  | Value.I64 -> 3
  | Value.ISize -> 4
  | Value.U8 -> 5
  | Value.U16 -> 6
  | Value.U32 -> 7
  | Value.U64 -> 8
  | Value.USize -> 9
  | Value.F32 -> 10
  | Value.F64 -> 11
  | Value.Bool -> 12
  | Value.Char -> 13
  | Value.Str -> 14

let ty_of_code = function
  | 0 -> Value.I8
  | 1 -> Value.I16
  | 2 -> Value.I32
  | 3 -> Value.I64
  | 4 -> Value.ISize
  | 5 -> Value.U8
  | 6 -> Value.U16
  | 7 -> Value.U32
  | 8 -> Value.U64
  | 9 -> Value.USize
  | 10 -> Value.F32
  | 11 -> Value.F64
  | 12 -> Value.Bool
  | 13 -> Value.Char
  | 14 -> Value.Str
  | n -> Codec.fail "bad type code %d" n

let add_value b : Value.t -> unit = function
  | Value.Int (ty, n) ->
      Codec.add_u8 b 0;
      Codec.add_u8 b (ty_code ty);
      Codec.add_int b n
  | Value.Float (ty, f) ->
      Codec.add_u8 b 1;
      Codec.add_u8 b (ty_code ty);
      Codec.add_f64 b f
  | Value.B x ->
      Codec.add_u8 b 2;
      Codec.add_bool b x
  | Value.C ch ->
      Codec.add_u8 b 3;
      Codec.add_char b ch
  | Value.S s ->
      Codec.add_u8 b 4;
      Codec.add_str b s

let value r : Value.t =
  match Codec.u8 r with
  | 0 ->
      let ty = ty_of_code (Codec.u8 r) in
      Value.Int (ty, Codec.int r)
  | 1 ->
      let ty = ty_of_code (Codec.u8 r) in
      Value.Float (ty, Codec.f64 r)
  | 2 -> Value.B (Codec.bool r)
  | 3 -> Value.C (Codec.char r)
  | 4 -> Value.S (Codec.str r)
  | n -> Codec.fail "bad value tag %d" n

let add_tuple b (t : Tuple.t) = Codec.add_array add_value b t
let tuple r : Tuple.t = Codec.array ~max:65536 "tuple arity" value r

let add_input b (i : Provenance.Input.t) =
  Codec.add_opt Codec.add_f64 b i.Provenance.Input.prob;
  Codec.add_opt Codec.add_int b i.Provenance.Input.me_group

let input r : Provenance.Input.t =
  let prob = Codec.opt Codec.f64 r in
  let me_group = Codec.opt Codec.int r in
  { Provenance.Input.prob; me_group }

(* ---- op records ------------------------------------------------------------- *)

type op =
  | Op_open of { expect_hash : string option; hash : string; spec : string; source : string }
  | Op_assert of { lsn : int; pred : string; input : Provenance.Input.t; tuple : Tuple.t }
  | Op_retract of { lsn : int; pred : string; tuple : Tuple.t }
  | Op_close of { lsn : int }

let op_lsn = function
  | Op_open _ -> 0
  | Op_assert { lsn; _ } | Op_retract { lsn; _ } | Op_close { lsn } -> lsn

let encode_op : op -> string =
  Codec.encode (fun b -> function
    | Op_open { expect_hash; hash; spec; source } ->
        Codec.add_char b 'O';
        Codec.add_opt Codec.add_str b expect_hash;
        Codec.add_str b hash;
        Codec.add_str b spec;
        Codec.add_str b source
    | Op_assert { lsn; pred; input; tuple = t } ->
        Codec.add_char b 'A';
        Codec.add_int b lsn;
        Codec.add_str b pred;
        add_input b input;
        add_tuple b t
    | Op_retract { lsn; pred; tuple = t } ->
        Codec.add_char b 'R';
        Codec.add_int b lsn;
        Codec.add_str b pred;
        add_tuple b t
    | Op_close { lsn } ->
        Codec.add_char b 'C';
        Codec.add_int b lsn)

let decode_op : string -> op =
  Codec.decode "op record" (fun r ->
      match Codec.char r with
      | 'O' ->
          let expect_hash = Codec.opt Codec.str r in
          let hash = Codec.str r in
          let spec = Codec.str r in
          let source = Codec.str r in
          Op_open { expect_hash; hash; spec; source }
      | 'A' ->
          let lsn = Codec.int r in
          let pred = Codec.str r in
          let i = input r in
          let t = tuple r in
          Op_assert { lsn; pred; input = i; tuple = t }
      | 'R' ->
          let lsn = Codec.int r in
          let pred = Codec.str r in
          let t = tuple r in
          Op_retract { lsn; pred; tuple = t }
      | 'C' -> Op_close { lsn = Codec.int r }
      | ch -> Codec.fail "unknown op tag %C" ch)

(* ---- snapshots -------------------------------------------------------------- *)

type snapshot = {
  sn_spec : string;
  sn_hash : string;
  sn_expect : string option;
  sn_source : string;
      (** the full program travels in every snapshot, so recovery never
          depends on segment 0 (the open record) surviving compaction *)
  sn_lsn : int;  (** every op with lsn <= this is folded into [sn_facts] *)
  sn_facts : (string * (Provenance.Input.t * Tuple.t) list) list;
      (** the overlay in canonical first-assertion order — the exact list
          {!Incr.current_facts} returned when the snapshot was taken *)
}

let snapshot_version = 1

let add_pred_facts b (pred, facts) =
  Codec.add_str b pred;
  Codec.add_list
    (fun b (i, t) ->
      add_input b i;
      add_tuple b t)
    b facts

let pred_facts r =
  let pred = Codec.str r in
  let facts =
    Codec.list ~max:100_000_000 "fact count"
      (fun r ->
        let i = input r in
        let t = tuple r in
        (i, t))
      r
  in
  (pred, facts)

let encode_snapshot : snapshot -> string =
  Codec.encode ~size:256 (fun b s ->
      Codec.add_u8 b snapshot_version;
      Codec.add_str b s.sn_spec;
      Codec.add_str b s.sn_hash;
      Codec.add_opt Codec.add_str b s.sn_expect;
      Codec.add_str b s.sn_source;
      Codec.add_int b s.sn_lsn;
      Codec.add_list add_pred_facts b s.sn_facts)

let decode_snapshot : string -> snapshot =
  Codec.decode "snapshot" (fun r ->
      let v = Codec.u8 r in
      if v <> snapshot_version then Codec.fail "unsupported snapshot version %d" v;
      let sn_spec = Codec.str r in
      let sn_hash = Codec.str r in
      let sn_expect = Codec.opt Codec.str r in
      let sn_source = Codec.str r in
      let sn_lsn = Codec.int r in
      let sn_facts = Codec.list ~max:1_000_000 "predicate count" pred_facts r in
      { sn_spec; sn_hash; sn_expect; sn_source; sn_lsn; sn_facts })

(* ---- directory layout -------------------------------------------------------- *)

(* STATE_DIR/sessions/s-<encoded sid>/
     wal-NNNNNNNNN.log             segment k: ops recorded after snapshot k-1
     snap/snapshot-NNNNNNNNN.ckpt  Atomic_io generations *)

let encode_sid sid =
  let b = Buffer.create (String.length sid + 2) in
  String.iter
    (fun ch ->
      match ch with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' -> Buffer.add_char b ch
      | ch -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code ch)))
    sid;
  Buffer.contents b

let decode_sid enc =
  let b = Buffer.create (String.length enc) in
  let n = String.length enc in
  let i = ref 0 in
  while !i < n do
    (if enc.[!i] = '%' && !i + 2 < n then
       match int_of_string_opt ("0x" ^ String.sub enc (!i + 1) 2) with
       | Some code ->
           Buffer.add_char b (Char.chr (code land 0xff));
           i := !i + 2
       | None -> Buffer.add_char b enc.[!i]
     else Buffer.add_char b enc.[!i]);
    incr i
  done;
  Buffer.contents b

let sessions_root state_dir = Filename.concat state_dir "sessions"
let dir_prefix = "s-"

let session_dir state_dir sid =
  Filename.concat (sessions_root state_dir) (dir_prefix ^ encode_sid sid)

let snap_dir dir = Filename.concat dir "snap"

module Segments = Atomic_io.Family (struct
  let prefix = "wal-"
  let suffix = ".log"
end)

module Generations = Atomic_io.Generations

(* Every WAL segment up to the oldest retained snapshot generation is
   folded into that generation — and into every newer one. *)
let prune_segments dir =
  match Generations.list ~dir:(snap_dir dir) with
  | [] -> ()
  | g_min :: _ -> Segments.remove_upto ~dir g_min

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

(* ---- replication events ------------------------------------------------------- *)

(* The per-segment checksum chain: every appended record folds into a
   running FNV-1a over (previous chain ‖ payload), reset at each segment
   rotation.  The primary ships the chain value after each op; a follower
   that replays the same bytes computes the same chain, so any divergence —
   a dropped frame, a mutated payload, a fork — is caught at the next
   frame, not at the next full resync. *)
let chain_add (chain : int64) (payload : string) : int64 =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 chain;
  Atomic_io.fnv1a64 ~seed:(Atomic_io.fnv1a64 (Bytes.unsafe_to_string b)) payload

(** What a primary tells its followers.  [Ev_op] carries the {e exact} WAL
    record bytes (so follower segments are byte-identical to the
    primary's), the segment and lsn it landed at, and the chain value
    after it.  [Ev_seal] closes a segment at compaction — the follower
    verifies its own chain against it before adopting the snapshot that
    follows.  [Ev_snapshot] is the snapshot generation itself: the bridge
    for followers too far behind to replay (lag past segment pruning) and
    the barrier content heading each ship-log segment. *)
type repl_event =
  | Ev_op of { sid : string; seg : int; lsn : int; chain : int64; payload : string }
  | Ev_seal of { sid : string; seg : int; last_lsn : int; chain : int64; records : int }
  | Ev_snapshot of { sid : string; gen : int; lsn : int; payload : string }

(** How the replication transport plugs in without {!Durable} knowing it
    exists.  [rs_emit], [rs_rotation_due], [rs_rotate_begin] and
    [rs_rotate_end] are called {b under the manager lock} — they must only
    write the ship log, never call back into the registry.  [rs_barrier]
    runs {b outside} the lock after an op's local durability is settled;
    it blocks for the configured acknowledgement level and raises typed
    [Session.Error]s ([Fenced], [Ack_timeout]) to veto the
    acknowledgement. *)
type repl_sink = {
  rs_emit : repl_event -> unit;
  rs_rotation_due : unit -> bool;  (** ship log wants a fresh segment *)
  rs_rotate_begin : unit -> unit;  (** open it (the epoch frame goes first) *)
  rs_rotate_end : unit -> unit;  (** barrier snapshots emitted; prune old segments *)
  rs_barrier : unit -> unit;
}

(* ---- configuration ------------------------------------------------------------ *)

type config = {
  state_dir : string option;
      (** [None]: in-memory registry — no durability, no eviction *)
  spec : Registry.spec;
  interp : Interp.config;
  snapshot_every : int;  (** ops between compaction snapshots *)
  keep_snapshots : int;  (** snapshot generations retained per session *)
  wal_sync : bool;  (** fsync each WAL append before acknowledging *)
  group_commit : bool;
      (** batch concurrent sessions' WAL fsyncs into one ({!Wal.Group});
          meaningless without [wal_sync] *)
  group_window : float;
      (** leader flush-gathering window in seconds (see {!Wal.Group}) *)
  max_live : int option;  (** LRU cap on hydrated sessions *)
  idle_ttl : float option;  (** spill sessions idle longer than this (seconds) *)
  now : unit -> float;  (** injectable clock for idle accounting *)
  repl : repl_sink option;  (** primary-side replication transport *)
  standby : bool;
      (** start as a replication standby: client writes are refused until
          {!set_standby}[ mgr false] promotes the registry *)
}

let config ?state_dir ?(snapshot_every = 64) ?(keep_snapshots = 3) ?(wal_sync = true)
    ?(group_commit = false) ?(group_window = 0.) ?max_live ?idle_ttl
    ?(now = Scallop_utils.Monotonic.now) ?(interp = Interp.default_config ()) ?repl
    ?(standby = false) (spec : Registry.spec) : config =
  if snapshot_every < 1 then invalid_arg "Durable.config: snapshot_every must be >= 1";
  if keep_snapshots < 1 then invalid_arg "Durable.config: keep_snapshots must be >= 1";
  if group_window < 0. then invalid_arg "Durable.config: group_window must be >= 0";
  {
    state_dir;
    spec;
    interp;
    snapshot_every;
    keep_snapshots;
    wal_sync;
    group_commit;
    group_window;
    max_live;
    idle_ttl;
    now;
    repl;
    standby;
  }

(* ---- manager state -------------------------------------------------------------- *)

type live = { incr : Incr.t; mutable wal : Wal.t option  (** opened lazily *) }

type state =
  | Live of live
  | Spilled  (** durable on disk; rehydrated on next touch *)
  | Failed of Exec_error.t
      (** recovery failed, or a close could not make its record durable;
          every touch but [close] replies with this, and [close] discards
          the session *)
  | Closed

type entry = {
  sid : string;
  dir : string option;
  source : string;
  hash : string;
  expect_hash : string option;
  mutable e_state : state;
  mutable next_lsn : int;
  mutable active_seg : int;
  mutable seg_chain : int64;  (** checksum chain over the active segment's records *)
  mutable seg_records : int;  (** records in the active segment *)
  mutable ops_since_snap : int;  (** unsnapshotted ops; bounds rehydration replay *)
  mutable last_used : float;
  mutable pins : int;  (** queries in flight; pinned entries are never spilled *)
  mutable last_stats : Incr.session_stats;  (** carried across spill / close *)
}

type stats = {
  mutable wal_appends : int;
  mutable wal_bytes : int;
  mutable wal_replayed : int;  (** op records replayed by recovery + rehydration *)
  mutable snapshots : int;
  mutable evictions : int;
  mutable rehydrations : int;
  mutable recovered : int;  (** sessions rebuilt alive at {!create} *)
  mutable recovery_failures : int;
  mutable remote_applied : int;  (** replicated ops applied on this standby *)
  mutable remote_installs : int;  (** snapshot transfers installed / adopted *)
  mutable divergences : int;  (** sessions quarantined as [Replication_diverged] *)
  mutable scrubs : int;  (** scrub sweeps completed *)
  mutable scrub_errors : int;  (** bit-rot findings of the latest sweep *)
}

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "wal-appends=%d wal-bytes=%d wal-replayed=%d snapshots=%d evictions=%d \
     rehydrations=%d recovered=%d recovery-failed=%d remote-applied=%d \
     remote-installs=%d diverged=%d scrubs=%d scrub-errors=%d"
    s.wal_appends s.wal_bytes s.wal_replayed s.snapshots s.evictions s.rehydrations
    s.recovered s.recovery_failures s.remote_applied s.remote_installs s.divergences
    s.scrubs s.scrub_errors

type t = {
  cfg : config;
  mutex : Mutex.t;
  unpinned : Condition.t;
  entries : (string, entry) Hashtbl.t;
  dstats : stats;
  wal_group : Wal.Group.t option;
  mutable role : [ `Primary | `Standby ];
  mutable max_ticket : int;  (** newest group-commit ticket issued; -1 if none *)
}

let locked mgr f = Mutex.protect mgr.mutex f

let stats mgr = mgr.dstats
let spec_name_of mgr = Registry.spec_name mgr.cfg.spec

(* ---- loading one session from disk ----------------------------------------------- *)

type loaded = {
  l_incr : Incr.t;
  l_source : string;
  l_hash : string;
  l_expect : string option;
  l_next_lsn : int;
  l_active_seg : int;
  l_seg_chain : int64;  (** checksum chain over the active segment's records *)
  l_seg_records : int;
  l_replayed : int;
  l_closed : bool;
}

(* Validate an assert/retract against the engine without mutating it,
   raising exactly what applying it would; the op carries the checked
   tuple. *)
let check_change incr = function
  | Op_assert ({ pred; tuple; _ } as a) ->
      Op_assert { a with tuple = Incr.check_assert incr ~pred tuple }
  | Op_retract ({ pred; tuple; _ } as r) ->
      Op_retract { r with tuple = Incr.check_retract incr ~pred tuple }
  | (Op_open _ | Op_close _) as op -> op

(* Apply an assert/retract to the engine: the commit, replay and remote
   apply paths all go through here. *)
let apply_change incr = function
  | Op_assert { pred; input; tuple; _ } ->
      Incr.assert_fact incr ~pred ?prob:input.Provenance.Input.prob
        ?me_group:input.Provenance.Input.me_group tuple
  | Op_retract { pred; tuple; _ } -> Incr.retract_fact incr ~pred tuple
  | Op_open _ | Op_close _ -> ()

(* A session directory with no snapshot and zero complete log records: the
   crash happened before the open was acknowledged, so the session never
   observably existed — its remains are discarded, not quarantined. *)
exception Never_opened

(* Newest snapshot generation that both checksums (Atomic_io envelope) and
   decodes — the generation fallback extended to the payload layer. *)
let load_snapshot ~sdir : snapshot option =
  Option.map snd (Atomic_io.load_latest ~dir:sdir ~decode:decode_snapshot)

(** Rebuild one session from its directory.  Raises
    [Session.Error (Recovery_failed _)] on anything that cannot be
    attributed to a mid-write crash. *)
let load_session mgr ~sid ~dir : loaded =
  let session = sid in
  let snap = load_snapshot ~sdir:(snap_dir dir) in
  let newest_gen_present =
    match List.rev (Generations.list ~dir:(snap_dir dir)) with
    | g :: _ -> g
    | [] -> -1
  in
  let segs = Segments.list ~dir in
  let last_seg = match List.rev segs with s :: _ -> s | [] -> -1 in
  (* Read every retained segment; only the final segment may be torn.  The
     final segment's raw payloads are kept separately so the replication
     checksum chain over the {e active} segment can be recomputed — a
     restarted follower must resume the chain exactly where its disk state
     left it. *)
  let last_records = ref [] in
  let records =
    List.concat_map
      (fun k ->
        let recs, tail = Wal.read ~path:(Segments.path ~dir k) in
        (match tail with
        | Wal.Clean -> ()
        | Wal.Torn _ when k = last_seg -> ()
        | Wal.Torn { valid_bytes } ->
            recovery_failed ~session "log segment %s truncated mid-history (%d valid bytes)"
              (Segments.name k) valid_bytes
        | Wal.Corrupt { offset; reason } ->
            recovery_failed ~session "corrupt log segment %s at byte %d: %s" (Segments.name k)
              offset reason);
        if k = last_seg then last_records := recs;
        recs)
      segs
  in
  let ops =
    List.map
      (fun payload ->
        match decode_op payload with
        | op -> op
        | exception Codec.Decode msg -> recovery_failed ~session "undecodable log record: %s" msg)
      records
  in
  (* Base state: the snapshot if any, else the open record heading segment 0. *)
  let expect_hash, hash, spec, source, base_lsn, base_facts =
    match snap with
    | Some s -> (s.sn_expect, s.sn_hash, s.sn_spec, s.sn_source, s.sn_lsn, s.sn_facts)
    | None -> (
        match ops with
        | Op_open { expect_hash; hash; spec; source } :: _ ->
            (expect_hash, hash, spec, source, 0, [])
        | [] -> raise Never_opened
        | _ :: _ -> recovery_failed ~session "no valid snapshot and no open record")
  in
  if not (String.equal spec (spec_name_of mgr)) then
    recovery_failed ~session "session was opened under provenance %s, service runs %s" spec
      (spec_name_of mgr);
  let actual = Session.source_hash source in
  if not (String.equal actual hash) then
    recovery_failed ~session "program hash mismatch: recorded %s, recovered source hashes to %s"
      hash actual;
  (match expect_hash with
  | Some h when not (String.equal h actual) ->
      recovery_failed ~session
        "program hash mismatch: pinned expect_hash %s, source hashes to %s" h actual
  | _ -> ());
  let incr =
    try Incr.open_session ~config:mgr.cfg.interp ~spec:mgr.cfg.spec source
    with Session.Error e ->
      recovery_failed ~session "program no longer compiles: %s" (Session.error_string e)
  in
  (* Replay: snapshot facts first (re-creating the canonical assertion
     order), then every logged op past the snapshot, in lsn order.  The lsn
     filter is what makes replay idempotent — a crash after the snapshot
     became durable but before its segments were pruned leaves records <=
     sn_lsn on disk, and they must not double-apply. *)
  let replayed = ref 0 in
  let max_lsn = ref base_lsn in
  let was_closed = ref false in
  (try
     List.iter
       (fun (pred, facts) ->
         List.iter
           (fun ((i : Provenance.Input.t), tup) ->
             Incr.assert_fact incr ~pred ?prob:i.Provenance.Input.prob
               ?me_group:i.Provenance.Input.me_group tup)
           facts)
       base_facts;
     List.iter
       (fun op ->
         let lsn = op_lsn op in
         if lsn > base_lsn then begin
           max_lsn := max !max_lsn lsn;
           match op with
           | Op_open _ -> ()
           | Op_assert _ | Op_retract _ ->
               replayed := !replayed + 1;
               apply_change incr op
           | Op_close _ -> was_closed := true
         end)
       ops
   with Session.Error e ->
     recovery_failed ~session "unreplayable op at lsn %d: %s" !max_lsn
       (Session.error_string e));
  (* Appends must land in a segment newer than any snapshot generation
     present on disk — even one skipped as corrupt — so every fallback
     path still reads them. *)
  let active_seg = max 0 (max last_seg (newest_gen_present + 1)) in
  let seg_chain, seg_records =
    if active_seg = last_seg then
      List.fold_left (fun (c, n) p -> (chain_add c p, n + 1)) (0L, 0) !last_records
    else (0L, 0)
  in
  {
    l_incr = incr;
    l_source = source;
    l_hash = hash;
    l_expect = expect_hash;
    l_next_lsn = !max_lsn + 1;
    l_active_seg = active_seg;
    l_seg_chain = seg_chain;
    l_seg_records = seg_records;
    l_replayed = !replayed;
    l_closed = !was_closed;
  }

(* ---- internals (callers hold the mutex) ------------------------------------------- *)

(* The one entry constructor.  A new session sits at lsn 1 of segment 0
   with an empty chain; recovery passes where the log left it. *)
let make_entry mgr ~sid ~dir ?(source = "") ?(hash = "") ?expect_hash ?(next_lsn = 1)
    ?(active_seg = 0) ?(seg_chain = 0L) ?(seg_records = 0) ?(ops_since_snap = 0) e_state =
  {
    sid;
    dir;
    source;
    hash;
    expect_hash;
    e_state;
    next_lsn;
    active_seg;
    seg_chain;
    seg_records;
    ops_since_snap;
    last_used = mgr.cfg.now ();
    pins = 0;
    last_stats =
      (match e_state with Live l -> Incr.stats l.incr | _ -> Incr.empty_session_stats ());
  }

let entry_of_loaded mgr ~sid ~dir ~ops_since_snap (l : loaded) =
  make_entry mgr ~sid ~dir:(Some dir) ~source:l.l_source ~hash:l.l_hash ?expect_hash:l.l_expect
    ~next_lsn:l.l_next_lsn ~active_seg:l.l_active_seg ~seg_chain:l.l_seg_chain
    ~seg_records:l.l_seg_records ~ops_since_snap
    (Live { incr = l.l_incr; wal = None })

(* Close a live session's WAL writer (fsync'd); the next append reopens
   the active segment. *)
let release_wal = function
  | Live ({ wal = Some w; _ } as l) ->
      Wal.close w;
      l.wal <- None
  | Spilled | Failed _ | Closed | Live { wal = None; _ } -> ()

let as_recovery_failed ~session = function
  | Exec_error.Recovery_failed _ as e -> e
  | other -> Exec_error.Recovery_failed { session; reason = Session.error_string other }

let find_entry mgr sid =
  match Hashtbl.find_opt mgr.entries sid with
  | Some e -> e
  | None -> invalid_input "unknown session %s" sid

let wal_of mgr entry (l : live) : Wal.t =
  match l.wal with
  | Some w -> w
  | None ->
      let dir = Option.get entry.dir in
      let w =
        io_guard (fun () ->
            Atomic_io.mkdir_p dir;
            Wal.open_append ~sync:mgr.cfg.wal_sync ?group:mgr.wal_group
              ~path:(Segments.path ~dir entry.active_seg) ())
      in
      l.wal <- Some w;
      w

let emit mgr ev = match mgr.cfg.repl with Some s -> s.rs_emit ev | None -> ()

(* Append raw record bytes to the session's active segment and fold them
   into the segment chain.  Returns the group-commit ticket the caller must
   settle (outside the lock) before acknowledging, when one exists. *)
let append_payload mgr entry (l : live) (payload : string) : int option =
  let w = wal_of mgr entry l in
  let ticket = io_guard (fun () -> Wal.append_ticket w payload) in
  (match ticket with Some tk -> mgr.max_ticket <- max mgr.max_ticket tk | None -> ());
  entry.seg_chain <- chain_add entry.seg_chain payload;
  entry.seg_records <- entry.seg_records + 1;
  mgr.dstats.wal_appends <- mgr.dstats.wal_appends + 1;
  mgr.dstats.wal_bytes <- mgr.dstats.wal_bytes + String.length payload + Wal.record_header_len;
  ticket

let append_op mgr entry (l : live) (op : op) : int option =
  match entry.dir with
  | None -> None
  | Some _ ->
      let payload = encode_op op in
      let ticket = append_payload mgr entry l payload in
      emit mgr
        (Ev_op
           {
             sid = entry.sid;
             seg = entry.active_seg;
             lsn = op_lsn op;
             chain = entry.seg_chain;
             payload;
           });
      ticket

(* Wait for the group fsync covering an op's ticket, raising its failure
   as a typed error. *)
let settle mgr (ticket : int option) : unit =
  match (ticket, mgr.wal_group) with
  | Some tk, Some g -> io_guard (fun () -> Wal.Group.wait g tk)
  | _ -> ()

(* Settle an op's durability and replication level, called OUTSIDE the
   manager lock after the locked section committed locally: wait for the
   group fsync covering the op's ticket, then run the replication barrier
   (which may raise Fenced / Ack_timeout to veto the acknowledgement). *)
let commit_wait mgr (ticket : int option) : unit =
  settle mgr ticket;
  match mgr.cfg.repl with Some s -> s.rs_barrier () | None -> ()

(** Wait until every WAL record appended so far is on stable storage — the
    follower's batch-apply path appends many records asynchronously and
    settles them with one flush before acknowledging. *)
let flush mgr : unit =
  match mgr.wal_group with
  | None -> ()
  | Some g ->
      let tk = locked mgr (fun () -> mgr.max_ticket) in
      if tk >= 0 then io_guard (fun () -> Wal.Group.wait g tk)

(* Snapshot the session's current overlay, rotate the WAL to a fresh
   segment, and prune segments no retained snapshot generation needs.  The
   snapshot is durable (atomic rename + dir fsync) before any segment is
   deleted, so a crash anywhere in here leaves a recoverable combination on
   disk. *)
let compact_locked mgr entry =
  match (entry.dir, entry.e_state) with
  | Some dir, Live l ->
      let s =
        {
          sn_spec = spec_name_of mgr;
          sn_hash = entry.hash;
          sn_expect = entry.expect_hash;
          sn_source = entry.source;
          sn_lsn = entry.next_lsn - 1;
          sn_facts = Incr.current_facts l.incr;
        }
      in
      let encoded = encode_snapshot s in
      let gen =
        io_guard (fun () ->
            Atomic_io.save ~dir:(snap_dir dir) ~keep:mgr.cfg.keep_snapshots encoded)
      in
      mgr.dstats.snapshots <- mgr.dstats.snapshots + 1;
      (* Seal the outgoing segment for the followers — chain and record
         count let them verify their replayed copy byte-for-byte — then
         ship the snapshot that supersedes it. *)
      emit mgr
        (Ev_seal
           {
             sid = entry.sid;
             seg = entry.active_seg;
             last_lsn = entry.next_lsn - 1;
             chain = entry.seg_chain;
             records = entry.seg_records;
           });
      release_wal entry.e_state;
      entry.active_seg <- max (entry.active_seg + 1) (gen + 1);
      entry.seg_chain <- 0L;
      entry.seg_records <- 0;
      entry.ops_since_snap <- 0;
      emit mgr (Ev_snapshot { sid = entry.sid; gen; lsn = s.sn_lsn; payload = encoded });
      prune_segments dir
  | _ -> ()

(* Spill a cold session: make the disk state current (a fresh snapshot if
   any op is unsnapshotted), release the writer, drop the in-memory
   engine. *)
let spill_locked mgr entry =
  match entry.e_state with
  | Live l when entry.pins = 0 && entry.dir <> None ->
      if entry.ops_since_snap > 0 then compact_locked mgr entry;
      release_wal entry.e_state;
      entry.last_stats <- Incr.stats l.incr;
      entry.e_state <- Spilled;
      mgr.dstats.evictions <- mgr.dstats.evictions + 1
  | _ -> ()

let enforce_caps_locked mgr =
  match mgr.cfg.state_dir with
  | None -> ()
  | Some _ ->
      let now = mgr.cfg.now () in
      (match mgr.cfg.idle_ttl with
      | Some ttl ->
          Hashtbl.iter
            (fun _ e ->
              match e.e_state with
              | Live _ when e.pins = 0 && now -. e.last_used > ttl -> spill_locked mgr e
              | _ -> ())
            mgr.entries
      | None -> ());
      (match mgr.cfg.max_live with
      | None -> ()
      | Some cap ->
          let live =
            Hashtbl.fold
              (fun _ e acc -> match e.e_state with Live _ -> e :: acc | _ -> acc)
              mgr.entries []
          in
          let excess = List.length live - cap in
          if excess > 0 then
            live
            |> List.filter (fun e -> e.pins = 0)
            |> List.sort (fun a b -> compare a.last_used b.last_used)
            |> List.filteri (fun i _ -> i < excess)
            |> List.iter (spill_locked mgr))

let rehydrate_locked mgr entry : live =
  let dir = Option.get entry.dir in
  match load_session mgr ~sid:entry.sid ~dir with
  | loaded ->
      let l = { incr = loaded.l_incr; wal = None } in
      entry.e_state <- Live l;
      entry.next_lsn <- loaded.l_next_lsn;
      entry.active_seg <- loaded.l_active_seg;
      entry.seg_chain <- loaded.l_seg_chain;
      entry.seg_records <- loaded.l_seg_records;
      entry.ops_since_snap <- loaded.l_replayed;
      mgr.dstats.rehydrations <- mgr.dstats.rehydrations + 1;
      mgr.dstats.wal_replayed <- mgr.dstats.wal_replayed + loaded.l_replayed;
      enforce_caps_locked mgr;
      l
  | exception Never_opened ->
      (* a spilled session's state vanished from under us: quarantine *)
      let e =
        Exec_error.Recovery_failed
          { session = entry.sid; reason = "no valid snapshot and no open record" }
      in
      entry.e_state <- Failed e;
      mgr.dstats.recovery_failures <- mgr.dstats.recovery_failures + 1;
      raise (Session.Error e)
  | exception Session.Error e ->
      let e = as_recovery_failed ~session:entry.sid e in
      entry.e_state <- Failed e;
      mgr.dstats.recovery_failures <- mgr.dstats.recovery_failures + 1;
      raise (Session.Error e)

(* Hydrated handle for a touch; refreshes the LRU clock. *)
let touch_live_locked mgr entry : live =
  entry.last_used <- mgr.cfg.now ();
  match entry.e_state with
  | Live l -> l
  | Spilled -> rehydrate_locked mgr entry
  | Failed e -> raise (Session.Error e)
  | Closed -> invalid_input "session is closed"

(* ---- standby role ----------------------------------------------------------------- *)

let require_primary mgr =
  if mgr.role = `Standby then
    invalid_input
      "this node is a replication standby: writes are refused until it is promoted"

let is_standby mgr = locked mgr (fun () -> mgr.role = `Standby)

(** Flip the registry's replication role.  [set_standby mgr false] is the
    promotion step: client writes are accepted from then on. *)
let set_standby mgr standby =
  locked mgr (fun () -> mgr.role <- (if standby then `Standby else `Primary))

(* ---- ship-log rotation barriers ----------------------------------------------------- *)

(* Every ship-log segment opens with a barrier: a snapshot of every live
   session, so the segment is self-contained — a follower may start (or
   resume, or recover from arbitrary lag) from the newest segment alone,
   and older segments can be pruned. *)

let emit_disk_snapshot_locked mgr entry dir =
  match
    Atomic_io.load_latest ~dir:(snap_dir dir) ~decode:(fun p -> ((decode_snapshot p).sn_lsn, p))
  with
  | None -> ()
  | Some (gen, (lsn, payload)) -> emit mgr (Ev_snapshot { sid = entry.sid; gen; lsn; payload })

let ship_snapshot_locked mgr entry =
  match entry.dir with
  | None -> ()
  | Some dir -> (
      match entry.e_state with
      | Failed _ | Closed -> ()
      | Live _ ->
          (* compacting emits the seal + a current snapshot; a session with
             nothing unsnapshotted just re-ships its newest disk snapshot *)
          if entry.ops_since_snap > 0 || Generations.list ~dir:(snap_dir dir) = []
          then compact_locked mgr entry
          else emit_disk_snapshot_locked mgr entry dir
      | Spilled ->
          (* spilling made the disk state current *)
          emit_disk_snapshot_locked mgr entry dir)

let rotate_ship_locked mgr (s : repl_sink) =
  s.rs_rotate_begin ();
  Hashtbl.iter (fun _ e -> ship_snapshot_locked mgr e) mgr.entries;
  s.rs_rotate_end ()

let maybe_rotate_ship_locked mgr =
  match mgr.cfg.repl with
  | Some s when s.rs_rotation_due () -> rotate_ship_locked mgr s
  | _ -> ()

(** Force a ship-log rotation barrier now: open a fresh ship segment headed
    by snapshots of every live session.  A (re)starting primary calls this
    once so followers can sync from its recovered state. *)
let ship_barrier mgr =
  locked mgr (fun () ->
      match mgr.cfg.repl with Some s -> rotate_ship_locked mgr s | None -> ())

(* ---- construction and recovery ------------------------------------------------------ *)

let create (cfg : config) : t =
  let mgr =
    {
      cfg;
      mutex = Mutex.create ();
      unpinned = Condition.create ();
      entries = Hashtbl.create 16;
      dstats =
        {
          wal_appends = 0;
          wal_bytes = 0;
          wal_replayed = 0;
          snapshots = 0;
          evictions = 0;
          rehydrations = 0;
          recovered = 0;
          recovery_failures = 0;
          remote_applied = 0;
          remote_installs = 0;
          divergences = 0;
          scrubs = 0;
          scrub_errors = 0;
        };
      wal_group =
        (if cfg.group_commit && cfg.wal_sync then
           Some (Wal.Group.create ~window:cfg.group_window ())
         else None);
      role = (if cfg.standby then `Standby else `Primary);
      max_ticket = -1;
    }
  in
  (match cfg.state_dir with
  | None -> ()
  | Some state_dir ->
      let root = sessions_root state_dir in
      io_guard (fun () -> Atomic_io.mkdir_p root);
      let names = match Sys.readdir root with exception Sys_error _ -> [||] | a -> a in
      Array.sort compare names;
      Array.iter
        (fun name ->
          let plen = String.length dir_prefix in
          if String.length name > plen && String.equal (String.sub name 0 plen) dir_prefix
          then begin
            let sid = decode_sid (String.sub name plen (String.length name - plen)) in
            let dir = Filename.concat root name in
            match load_session mgr ~sid ~dir with
            | loaded when loaded.l_closed ->
                (* closed cleanly; the crash beat the directory removal *)
                rm_rf dir
            | exception Never_opened ->
                (* the crash beat the open acknowledgement *)
                rm_rf dir
            | loaded ->
                Hashtbl.replace mgr.entries sid
                  (entry_of_loaded mgr ~sid ~dir ~ops_since_snap:loaded.l_replayed loaded);
                mgr.dstats.recovered <- mgr.dstats.recovered + 1;
                mgr.dstats.wal_replayed <- mgr.dstats.wal_replayed + loaded.l_replayed
            | exception Session.Error e ->
                Hashtbl.replace mgr.entries sid
                  (make_entry mgr ~sid ~dir:(Some dir) ~next_lsn:0
                     (Failed (as_recovery_failed ~session:sid e)));
                mgr.dstats.recovery_failures <- mgr.dstats.recovery_failures + 1
          end)
        names;
      locked mgr (fun () -> enforce_caps_locked mgr));
  mgr

(* ---- operations --------------------------------------------------------------------- *)

(** Open a session.  The program is compiled (shared plan cache) and
    validated {e before} anything is persisted, so a rejected open leaves no
    on-disk trace.  Returns the program hash. *)
let open_session mgr ~sid ?expect_hash source : string =
  let result, ticket =
    locked mgr (fun () ->
        require_primary mgr;
        if Hashtbl.mem mgr.entries sid then invalid_input "session %s already open" sid;
        let incr =
          Incr.open_session ~config:mgr.cfg.interp ?expect_hash ~spec:mgr.cfg.spec source
        in
        let hash = Incr.program_hash incr in
        let dir = Option.map (fun sd -> session_dir sd sid) mgr.cfg.state_dir in
        let l = { incr; wal = None } in
        let entry = make_entry mgr ~sid ~dir ~source ~hash ?expect_hash (Live l) in
        Option.iter rm_rf dir;
        let ticket =
          append_op mgr entry l (Op_open { expect_hash; hash; spec = spec_name_of mgr; source })
        in
        Hashtbl.replace mgr.entries sid entry;
        maybe_rotate_ship_locked mgr;
        enforce_caps_locked mgr;
        (hash, ticket))
  in
  commit_wait mgr ticket;
  result

(* The validate → log → apply commit shared by {!assert_fact} and
   {!retract_fact}: [op lsn] is the change to commit at [lsn]. *)
let commit_change mgr ~sid op =
  let ticket =
    locked mgr (fun () ->
        require_primary mgr;
        let entry = find_entry mgr sid in
        let l = touch_live_locked mgr entry in
        let op = check_change l.incr (op entry.next_lsn) in
        let ticket = append_op mgr entry l op in
        apply_change l.incr op;
        entry.next_lsn <- entry.next_lsn + 1;
        entry.ops_since_snap <- entry.ops_since_snap + 1;
        if entry.dir <> None && entry.ops_since_snap >= mgr.cfg.snapshot_every then
          compact_locked mgr entry;
        maybe_rotate_ship_locked mgr;
        enforce_caps_locked mgr;
        ticket)
  in
  commit_wait mgr ticket

(** Assert a fact.  Commit protocol: validate (raising exactly what
    {!Incr.assert_fact} would, without mutating), append the op to the WAL
    (fsync'd), then apply.  An acknowledged assert is therefore both valid
    and durable. *)
let assert_fact mgr ~sid ~pred ?prob ?me_group tup =
  commit_change mgr ~sid (fun lsn ->
      Op_assert { lsn; pred; input = { Provenance.Input.prob; me_group }; tuple = tup })

(** Retract a fact; same validate → log → apply protocol as {!assert_fact}. *)
let retract_fact mgr ~sid ~pred tup =
  commit_change mgr ~sid (fun lsn -> Op_retract { lsn; pred; tuple = tup })

let unpin mgr entry =
  locked mgr (fun () ->
      entry.pins <- entry.pins - 1;
      entry.last_used <- mgr.cfg.now ();
      (match entry.e_state with Live l -> entry.last_stats <- Incr.stats l.incr | _ -> ());
      Condition.broadcast mgr.unpinned)

(* Reads pin the entry: the manager mutex is released for the (possibly
   long) evaluation, and pinned entries are never spilled or torn down. *)
let with_pinned mgr ~sid f =
  let entry, l =
    locked mgr (fun () ->
        let entry = find_entry mgr sid in
        let l = touch_live_locked mgr entry in
        entry.pins <- entry.pins + 1;
        (entry, l))
  in
  Fun.protect ~finally:(fun () -> unpin mgr entry) (fun () -> f l.incr)

(** Answer a query.  Queries never touch the log — they change no durable
    state (a query only runs the program over the in-memory overlay). *)
let query ?outputs ?budget mgr ~sid () : Session.result =
  with_pinned mgr ~sid (fun incr -> Incr.query ?outputs ?budget incr)

(** The differential oracle for tests and benchmarks. *)
let run_cold ?outputs mgr ~sid () : Session.result =
  with_pinned mgr ~sid (fun incr -> Incr.run_cold ?outputs incr)

(* Log a closing session's close record and make it durable before its
   directory goes, so a crash between the two replays as a clean close.
   Runs under the manager lock: nothing touches the entry while the record
   settles.  Raises a typed error when the write or its fsync fails. *)
let log_close_locked mgr entry =
  match entry.e_state with
  | Live l ->
      entry.last_stats <- Incr.stats l.incr;
      let ticket = append_op mgr entry l (Op_close { lsn = entry.next_lsn }) in
      entry.next_lsn <- entry.next_lsn + 1;
      settle mgr ticket;
      release_wal entry.e_state;
      Incr.close l.incr
  | Spilled -> (
      (* no need to rehydrate the engine just to retire it *)
      match entry.dir with
      | None -> ()
      | Some dir ->
          let payload = encode_op (Op_close { lsn = entry.next_lsn }) in
          io_guard (fun () ->
              let w =
                Wal.open_append ~sync:mgr.cfg.wal_sync
                  ~path:(Segments.path ~dir entry.active_seg) ()
              in
              Fun.protect ~finally:(fun () -> Wal.close w) (fun () -> Wal.append w payload));
          entry.seg_chain <- chain_add entry.seg_chain payload;
          entry.seg_records <- entry.seg_records + 1;
          emit mgr
            (Ev_op
               {
                 sid = entry.sid;
                 seg = entry.active_seg;
                 lsn = entry.next_lsn;
                 chain = entry.seg_chain;
                 payload;
               });
          entry.next_lsn <- entry.next_lsn + 1)
  | Failed _ | Closed -> ()

(** Close a session: drain in-flight queries (pins), log the close and wait
    for it to be durable, delete the session's on-disk state, and retire
    the entry.  The sid stays registered as closed — re-opening it in the
    same process is "already open", matching the in-memory registry.
    Closing a quarantined session discards its state.  A close whose
    record cannot be made durable raises the typed I/O error and
    quarantines the session instead: after a failed fsync neither the
    record nor the log can be trusted, and a retried close discards it.
    Returns the session's final statistics. *)
let close mgr ~sid : Incr.session_stats =
  let result =
    locked mgr (fun () ->
        require_primary mgr;
        let entry = find_entry mgr sid in
        match entry.e_state with
        | Closed -> invalid_input "session is closed"
        | Failed _ ->
            Option.iter rm_rf entry.dir;
            entry.e_state <- Closed;
            entry.last_stats
        | Spilled | Live _ ->
            while entry.pins > 0 do
              Condition.wait mgr.unpinned mgr.mutex
            done;
            (try log_close_locked mgr entry
             with Session.Error e ->
               release_wal entry.e_state;
               entry.e_state <- Failed e;
               raise (Session.Error e));
            Option.iter rm_rf entry.dir;
            entry.e_state <- Closed;
            entry.last_stats)
  in
  (match mgr.cfg.repl with Some s -> s.rs_barrier () | None -> ());
  result

(** Latest statistics for a session (live handle if hydrated, last observed
    otherwise). *)
let session_stats mgr ~sid : Incr.session_stats =
  locked mgr (fun () ->
      let entry = find_entry mgr sid in
      match entry.e_state with Live l -> Incr.stats l.incr | _ -> entry.last_stats)

(** Whether [sid] names a registered session, in any state. *)
let exists mgr ~sid = locked mgr (fun () -> Hashtbl.mem mgr.entries sid)

type counts = { live : int; spilled : int; failed : int; closed : int }

let session_counts mgr : counts =
  locked mgr (fun () ->
      Hashtbl.fold
        (fun _ e c ->
          match e.e_state with
          | Live _ -> { c with live = c.live + 1 }
          | Spilled -> { c with spilled = c.spilled + 1 }
          | Failed _ -> { c with failed = c.failed + 1 }
          | Closed -> { c with closed = c.closed + 1 })
        mgr.entries
        { live = 0; spilled = 0; failed = 0; closed = 0 })

(** Run the idle-TTL / LRU-cap sweep now (it also runs after every
    state-changing op). *)
let sweep mgr = locked mgr (fun () -> enforce_caps_locked mgr)

(** Force a compaction snapshot of one session (test hook). *)
let compact mgr ~sid =
  locked mgr (fun () ->
      let entry = find_entry mgr sid in
      let _ = touch_live_locked mgr entry in
      compact_locked mgr entry)

(** Force-spill one session (test hook; no-op if pinned or non-durable). *)
let evict mgr ~sid = locked mgr (fun () -> spill_locked mgr (find_entry mgr sid))

let is_spilled mgr ~sid =
  locked mgr (fun () ->
      match (find_entry mgr sid).e_state with Spilled -> true | _ -> false)

(** Release every WAL writer (fsync'd).  Does not log closes: sessions stay
    live on disk for the next {!create}. *)
let shutdown mgr =
  locked mgr (fun () ->
      Hashtbl.iter (fun _ e -> release_wal e.e_state) mgr.entries)

(* ---- remote apply (the follower's commit path) ---------------------------------------- *)

(* A standby replays the primary's frames through these entry points.  The
   invariants they defend: an applied op is byte-identical to the
   primary's WAL record, lands at exactly the expected (segment, lsn), and
   reproduces the primary's checksum chain.  Anything else quarantines the
   session as [Replication_diverged] — answering queries from a silently
   forked replica is the one failure mode this layer exists to prevent.
   Snapshot transfer ([install_snapshot]) is also the healing path: it
   rebuilds diverged or lagging sessions from the primary's state. *)

let diverged_no_entry ~session ~segment fmt =
  Fmt.kstr
    (fun reason ->
      raise (Session.Error (Exec_error.Replication_diverged { session; segment; reason })))
    fmt

(* Quarantine [entry] and raise.  The engine is left in place (a pinned
   standby query may still be reading it); only the WAL writer is
   released. *)
let diverged mgr entry ~segment fmt =
  Fmt.kstr
    (fun reason ->
      let err =
        Exec_error.Replication_diverged { session = entry.sid; segment; reason }
      in
      release_wal entry.e_state;
      entry.e_state <- Failed err;
      mgr.dstats.divergences <- mgr.dstats.divergences + 1;
      raise (Session.Error err))
    fmt

type watermark = {
  wm_next_lsn : int;
  wm_seg : int;  (** active segment *)
  wm_failed : bool;  (** quarantined — only a snapshot transfer can heal it *)
  wm_closed : bool;
}

(** Where a session's replayed state stands — what the follower compares
    each incoming frame against to decide skip / apply / resync. *)
let remote_watermark mgr ~sid : watermark option =
  locked mgr (fun () ->
      match Hashtbl.find_opt mgr.entries sid with
      | None -> None
      | Some e ->
          Some
            {
              wm_next_lsn = e.next_lsn;
              wm_seg = e.active_seg;
              wm_failed = (match e.e_state with Failed _ -> true | _ -> false);
              wm_closed = (match e.e_state with Closed -> true | _ -> false);
            })

(** Apply one replicated op at exactly ([seg], [lsn]), verifying the
    checksum chain after it.  The record is appended to the local WAL
    asynchronously (group ticket); call {!flush} before acknowledging a
    batch. *)
let apply_remote mgr ~sid ~seg ~lsn ~chain ~payload : unit =
  locked mgr (fun () ->
      if mgr.cfg.state_dir = None then
        invalid_input "remote apply requires a state dir";
      let op =
        try decode_op payload
        with Codec.Decode msg ->
          diverged_no_entry ~session:sid ~segment:seg "undecodable replicated record: %s"
            msg
      in
      match op with
      | Op_open { expect_hash; hash; spec; source } ->
          if Hashtbl.mem mgr.entries sid then
            invalid_input "replicated open for existing session %s" sid;
          if not (String.equal spec (spec_name_of mgr)) then
            diverged_no_entry ~session:sid ~segment:seg
              "session opened under provenance %s, this node runs %s" spec
              (spec_name_of mgr);
          let incr =
            try
              Incr.open_session ~config:mgr.cfg.interp ?expect_hash ~spec:mgr.cfg.spec
                source
            with Session.Error e ->
              diverged_no_entry ~session:sid ~segment:seg
                "replicated program does not compile: %s" (Session.error_string e)
          in
          if not (String.equal (Incr.program_hash incr) hash) then
            diverged_no_entry ~session:sid ~segment:seg
              "replicated program hashes to %s, frame says %s" (Incr.program_hash incr)
              hash;
          let dir = Option.map (fun sd -> session_dir sd sid) mgr.cfg.state_dir in
          let l = { incr; wal = None } in
          let entry = make_entry mgr ~sid ~dir ~source ~hash ?expect_hash ~active_seg:seg (Live l) in
          Option.iter rm_rf dir;
          ignore (append_payload mgr entry l payload);
          Hashtbl.replace mgr.entries sid entry;
          if not (Int64.equal entry.seg_chain chain) then
            diverged mgr entry ~segment:seg "checksum chain mismatch on open";
          mgr.dstats.remote_applied <- mgr.dstats.remote_applied + 1
      | (Op_assert _ | Op_retract _ | Op_close _) as op -> (
          let entry =
            match Hashtbl.find_opt mgr.entries sid with
            | Some e -> e
            | None ->
                diverged_no_entry ~session:sid ~segment:seg
                  "replicated op for unknown session"
          in
          (match entry.e_state with
          | Failed err -> raise (Session.Error err)
          | Closed -> invalid_input "replicated op for closed session %s" sid
          | Live _ | Spilled -> ());
          if lsn <> entry.next_lsn then
            diverged mgr entry ~segment:seg "op at lsn %d arrived at watermark %d" lsn
              entry.next_lsn;
          if seg <> entry.active_seg then
            diverged mgr entry ~segment:seg "op for segment %d but active segment is %d"
              seg entry.active_seg;
          let l = touch_live_locked mgr entry in
          let check_chain () =
            if not (Int64.equal entry.seg_chain chain) then
              diverged mgr entry ~segment:seg "checksum chain mismatch after lsn %d" lsn
          in
          match op with
          | Op_assert _ | Op_retract _ ->
              let op =
                try check_change l.incr op
                with Session.Error e ->
                  diverged mgr entry ~segment:seg "replicated %s no longer validates: %s"
                    (match op with Op_assert _ -> "assert" | _ -> "retract")
                    (Session.error_string e)
              in
              ignore (append_payload mgr entry l payload);
              check_chain ();
              apply_change l.incr op;
              entry.next_lsn <- entry.next_lsn + 1;
              entry.ops_since_snap <- entry.ops_since_snap + 1;
              mgr.dstats.remote_applied <- mgr.dstats.remote_applied + 1
          | Op_close _ ->
              (* drain standby queries exactly like a local close *)
              while entry.pins > 0 do
                Condition.wait mgr.unpinned mgr.mutex
              done;
              ignore (append_payload mgr entry l payload);
              check_chain ();
              entry.next_lsn <- entry.next_lsn + 1;
              (match entry.e_state with
              | Live l2 ->
                  entry.last_stats <- Incr.stats l2.incr;
                  release_wal entry.e_state;
                  Incr.close l2.incr
              | _ -> ());
              Option.iter rm_rf entry.dir;
              entry.e_state <- Closed;
              mgr.dstats.remote_applied <- mgr.dstats.remote_applied + 1
          | Op_open _ -> assert false))

(** Verify a sealed segment against the local replay: same last lsn, same
    record count, same checksum chain.  Rotation itself happens when the
    snapshot that follows the seal is adopted. *)
let seal_remote mgr ~sid ~seg ~last_lsn ~chain ~records : unit =
  locked mgr (fun () ->
      match Hashtbl.find_opt mgr.entries sid with
      | None -> ()  (* unknown here: the snapshot that follows will install it *)
      | Some entry -> (
          match entry.e_state with
          | Failed _ | Closed -> ()
          | Live _ | Spilled ->
              if seg < entry.active_seg then () (* already sealed; replayed frame *)
              else if seg > entry.active_seg then
                diverged mgr entry ~segment:seg "seal for future segment (active is %d)"
                  entry.active_seg
              else begin
                if entry.next_lsn - 1 <> last_lsn then
                  diverged mgr entry ~segment:seg
                    "segment sealed at lsn %d but replay reached %d" last_lsn
                    (entry.next_lsn - 1);
                if entry.seg_records <> records then
                  diverged mgr entry ~segment:seg
                    "segment sealed with %d records but replay holds %d" records
                    entry.seg_records;
                if not (Int64.equal entry.seg_chain chain) then
                  diverged mgr entry ~segment:seg
                    "checksum chain mismatch at seal (%d records)" records
              end))

type install =
  | Installed  (** full snapshot transfer: session rebuilt from the payload *)
  | Adopted  (** state was already current; snapshot adopted as the local
                 compaction point *)
  | Skipped  (** local state is ahead of (or closed relative to) the snapshot *)

(** Install a replicated snapshot generation.  Three regimes: a session
    whose replay is {e at} the snapshot's lsn adopts it (write the file at
    the primary's generation number, rotate, prune) so primary and
    follower compact in lockstep; a session that is behind, unknown, or
    quarantined is rebuilt from the payload through the normal recovery
    path; a session that is ahead skips it (a replayed barrier frame). *)
let install_snapshot mgr ~sid ~gen ~payload : install =
  locked mgr (fun () ->
      let state_dir =
        match mgr.cfg.state_dir with
        | Some sd -> sd
        | None -> invalid_input "snapshot install requires a state dir"
      in
      let s =
        try decode_snapshot payload
        with Codec.Decode msg ->
          diverged_no_entry ~session:sid ~segment:gen "undecodable snapshot: %s" msg
      in
      let existing = Hashtbl.find_opt mgr.entries sid in
      let healthy e = match e.e_state with Live _ | Spilled -> true | _ -> false in
      match existing with
      | Some e when (match e.e_state with Closed -> true | _ -> false) -> Skipped
      | Some e when healthy e && e.next_lsn - 1 > s.sn_lsn -> Skipped
      | Some e when healthy e && e.next_lsn - 1 = s.sn_lsn ->
          let dir = Option.get e.dir in
          io_guard (fun () ->
              Atomic_io.save_at ~dir:(snap_dir dir) ~gen ~keep:mgr.cfg.keep_snapshots
                payload);
          mgr.dstats.snapshots <- mgr.dstats.snapshots + 1;
          if gen + 1 > e.active_seg then begin
            release_wal e.e_state;
            e.active_seg <- gen + 1;
            e.seg_chain <- 0L;
            e.seg_records <- 0
          end;
          e.ops_since_snap <- 0;
          prune_segments dir;
          Adopted
      | _ -> (
          (* unknown, quarantined, or behind: full transfer *)
          Option.iter (fun e -> release_wal e.e_state) existing;
          let dir = session_dir state_dir sid in
          io_guard (fun () ->
              rm_rf dir;
              Atomic_io.save_at ~dir:(snap_dir dir) ~gen ~keep:mgr.cfg.keep_snapshots
                payload);
          match load_session mgr ~sid ~dir with
          | loaded ->
              Hashtbl.replace mgr.entries sid
                (entry_of_loaded mgr ~sid ~dir ~ops_since_snap:0 loaded);
              mgr.dstats.remote_installs <- mgr.dstats.remote_installs + 1;
              Installed
          | exception Never_opened ->
              diverged_no_entry ~session:sid ~segment:gen
                "installed snapshot did not load"
          | exception Session.Error e ->
              let err = as_recovery_failed ~session:sid e in
              (match existing with
              | Some entry -> entry.e_state <- Failed err
              | None -> ());
              mgr.dstats.recovery_failures <- mgr.dstats.recovery_failures + 1;
              raise (Session.Error err)))

(* ---- scrub ---------------------------------------------------------------------------- *)

type scrub_report = {
  sc_sid : string;
  sc_snapshots : int;  (** snapshot generations examined *)
  sc_segments : int;  (** WAL segments examined *)
  sc_errors : string list;  (** bit-rot findings, empty when clean *)
}

(** Re-verify the checksums of every retained snapshot generation and WAL
    segment of every registered session — the background defense against
    bit rot that would otherwise surface only at the next recovery.  Purely
    a read: nothing is repaired or quarantined (a damaged generation is
    exactly what the generation fallback at recovery is for), but the
    findings land in {!stats} ([scrubs], [scrub_errors]) and the per-session
    report. *)
let scrub mgr : scrub_report list =
  locked mgr (fun () ->
      let reports =
        Hashtbl.fold
          (fun _ e acc ->
            match (e.dir, e.e_state) with
            | None, _ | _, Closed -> acc
            | Some dir, _ ->
                let errors = ref [] in
                let sdir = snap_dir dir in
                let gens = Generations.list ~dir:sdir in
                List.iter
                  (fun g ->
                    match Atomic_io.read_file ~path:(Generations.path ~dir:sdir g) with
                    | Error err ->
                        errors :=
                          Fmt.str "snapshot gen %d: %s" g
                            (Atomic_io.read_error_string err)
                          :: !errors
                    | Ok payload -> (
                        match decode_snapshot payload with
                        | _ -> ()
                        | exception Codec.Decode msg ->
                            errors := Fmt.str "snapshot gen %d: %s" g msg :: !errors))
                  gens;
                let segs = Segments.list ~dir in
                let last = match List.rev segs with s :: _ -> s | [] -> -1 in
                List.iter
                  (fun k ->
                    match snd (Wal.read ~path:(Segments.path ~dir k)) with
                    | Wal.Clean -> ()
                    | Wal.Torn _ when k = last -> () (* crash leftover, truncated on reopen *)
                    | tail ->
                        errors :=
                          Fmt.str "segment %s: %s" (Segments.name k) (Wal.tail_string tail)
                          :: !errors)
                  segs;
                {
                  sc_sid = e.sid;
                  sc_snapshots = List.length gens;
                  sc_segments = List.length segs;
                  sc_errors = List.rev !errors;
                }
                :: acc)
          mgr.entries []
      in
      let reports = List.sort (fun a b -> compare a.sc_sid b.sc_sid) reports in
      mgr.dstats.scrubs <- mgr.dstats.scrubs + 1;
      mgr.dstats.scrub_errors <-
        List.fold_left (fun n r -> n + List.length r.sc_errors) 0 reports;
      reports)

(** (sid, next lsn, active segment) of every non-closed session, sorted —
    the replication status line. *)
let session_watermarks mgr : (string * int * int) list =
  locked mgr (fun () ->
      Hashtbl.fold
        (fun _ e acc ->
          match e.e_state with
          | Closed -> acc
          | _ -> (e.sid, e.next_lsn, e.active_seg) :: acc)
        mgr.entries []
      |> List.sort compare)
