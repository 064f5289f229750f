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
      (atomic rename, checksummed envelope, newest {!keep_snapshots}
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
    - {b One lock.}  The manager lock is the only lock on session state,
      and each decision about a session is taken once, under it: a write
      commits there, a query takes its {!Incr.snapshot} there, and a
      replicated frame is judged and applied there in one call.  A query
      then runs outside the lock, on its snapshot, so it stalls no write
      and no other session, and neither a spill nor {!close} waits for
      it.

    Without a [state_dir] the registry still works but nothing persists
    and nothing is evicted. *)

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
    exists.  Every field is called {b under the manager lock} — it must
    only touch the ship log, never call back into the registry.
    [rs_barrier] is called once an op's frames are shipped and returns
    the op's wait, which runs {b outside} the lock after the op's local
    durability is settled: it blocks for the configured acknowledgement
    level of those frames and raises typed [Session.Error]s ([Fenced],
    [Ack_timeout]) to veto the acknowledgement. *)
type repl_sink = {
  rs_emit : repl_event -> unit;
  rs_rotation_due : unit -> bool;  (** ship segment full, or an append to it failed *)
  rs_rotate_begin : unit -> unit;  (** open it (the epoch frame goes first) *)
  rs_rotate_end : unit -> unit;  (** barrier snapshots emitted; prune old segments *)
  rs_barrier : unit -> unit -> unit;
}

(* ---- configuration ------------------------------------------------------------ *)

(** Snapshot generations retained per session. *)
let keep_snapshots = 3

type config = {
  state_dir : string option;
      (** [None]: in-memory registry — no durability, no eviction *)
  spec : Registry.spec;
  interp : Interp.config;
  snapshot_every : int;  (** ops between compaction snapshots *)
  wal_sync : bool;  (** fsync each WAL append before acknowledging *)
  group_commit : bool;
      (** batch concurrent sessions' WAL fsyncs into one ({!Wal.Group});
          meaningless without [wal_sync] *)
  max_live : int option;  (** LRU cap on hydrated sessions *)
  idle_ttl : float option;  (** spill sessions idle longer than this (seconds) *)
  now : unit -> float;  (** injectable clock for idle accounting *)
  repl : repl_sink option;  (** primary-side replication transport *)
  standby : bool;
      (** start as a replication standby: client writes are refused until
          {!set_standby}[ mgr false] promotes the registry *)
}

let config ?state_dir ?(snapshot_every = 64) ?(wal_sync = true)
    ?(group_commit = false) ?max_live ?idle_ttl
    ?(now = Scallop_utils.Monotonic.now) ?(interp = Interp.default_config ()) ?repl
    ?(standby = false) (spec : Registry.spec) : config =
  if snapshot_every < 1 then invalid_arg "Durable.config: snapshot_every must be >= 1";
  {
    state_dir;
    spec;
    interp;
    snapshot_every;
    wal_sync;
    group_commit;
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
  mutable source : string;  (** the program; set at open and by every load *)
  mutable hash : string;
  mutable expect_hash : string option;
  mutable e_state : state;
  mutable next_lsn : int;
  mutable active_seg : int;
  mutable seg_chain : int64;  (** checksum chain over the active segment's records *)
  mutable seg_records : int;  (** records in the active segment *)
  mutable ops_since_snap : int;  (** unsnapshotted ops; bounds rehydration replay *)
  mutable last_used : float;
  mutable last_stats : Incr.session_stats;
      (** carried across spill, quarantine and close *)
}

type stats = {
  mutable wal_appends : int;
  mutable wal_bytes : int;
  mutable wal_replayed : int;  (** op records replayed by recovery + rehydration *)
  mutable snapshots : int;
  mutable snapshot_failures : int;
      (** compactions that failed after their op committed; the next op retries *)
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
    "wal-appends=%d wal-bytes=%d wal-replayed=%d snapshots=%d snapshot-failures=%d \
     evictions=%d rehydrations=%d recovered=%d recovery-failed=%d remote-applied=%d \
     remote-installs=%d diverged=%d scrubs=%d scrub-errors=%d"
    s.wal_appends s.wal_bytes s.wal_replayed s.snapshots s.snapshot_failures s.evictions
    s.rehydrations
    s.recovered s.recovery_failures s.remote_applied s.remote_installs s.divergences
    s.scrubs s.scrub_errors

type t = {
  cfg : config;
  mutex : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  dstats : stats;
  wal_group : Wal.Group.t option;
  mutable role : [ `Primary | `Standby ];
  mutable max_ticket : int;  (** newest group-commit ticket issued; -1 if none *)
}

let locked mgr f = Mutex.protect mgr.mutex f

let stats mgr = mgr.dstats
let spec_name_of mgr = Registry.spec_name mgr.cfg.spec

(* ---- internals (callers hold the mutex) ------------------------------------------- *)

(* Validate an assert/retract against the engine without mutating it,
   raising exactly what applying it would; the op carries the checked
   tuple. *)
let check_change incr = function
  | Op_assert ({ pred; tuple; _ } as a) ->
      Op_assert { a with tuple = Incr.check_assert incr ~pred tuple }
  | Op_retract ({ pred; tuple; _ } as r) ->
      Op_retract { r with tuple = Incr.check_retract incr ~pred tuple }
  | (Op_open _ | Op_close _) as op -> op

(* Apply an assert/retract to the engine: the log step and replay both go
   through here. *)
let apply_change incr = function
  | Op_assert { pred; input; tuple; _ } ->
      Incr.assert_fact incr ~pred ?prob:input.Provenance.Input.prob
        ?me_group:input.Provenance.Input.me_group tuple
  | Op_retract { pred; tuple; _ } -> Incr.retract_fact incr ~pred tuple
  | Op_open _ | Op_close _ -> ()

(* The one entry constructor.  A new session sits at lsn 1 of its first
   segment with an empty chain; {!load_locked} fills in where a log left
   one. *)
let make_entry mgr ~sid ~dir ?(source = "") ?(hash = "") ?expect_hash ?(next_lsn = 1)
    ?(active_seg = 0) e_state =
  {
    sid;
    dir;
    source;
    hash;
    expect_hash;
    e_state;
    next_lsn;
    active_seg;
    seg_chain = 0L;
    seg_records = 0;
    ops_since_snap = 0;
    last_used = mgr.cfg.now ();
    last_stats = Incr.empty_session_stats ();
  }

(* Close a live session's WAL writer (fsync'd); the next append reopens
   the active segment. *)
let release_wal = function
  | Live ({ wal = Some w; _ } as l) ->
      Wal.close w;
      l.wal <- None
  | Spilled | Failed _ | Closed | Live { wal = None; _ } -> ()

(* Quarantine [entry] as [err] and raise it, keeping the statistics of its
   engine; only the WAL writer is released. *)
let quarantine_locked entry err =
  (match entry.e_state with Live l -> entry.last_stats <- Incr.stats l.incr | _ -> ());
  release_wal entry.e_state;
  entry.e_state <- Failed err;
  raise (Session.Error err)

let as_recovery_failed ~session = function
  | Exec_error.Recovery_failed _ as e -> e
  | other -> Exec_error.Recovery_failed { session; reason = Session.error_string other }

let find_entry mgr sid =
  match Hashtbl.find_opt mgr.entries sid with
  | Some e -> e
  | None -> invalid_input "unknown session %s" sid

(* ---- loading one session from disk ----------------------------------------------- *)

(* A session directory whose log shows no open session: there is no
   snapshot and zero complete records (the crash beat the open's
   acknowledgement), or the log ends in a close record (the crash beat
   the directory removal).  The session never observably existed, or is
   observably gone, so its remains are discarded, not quarantined. *)
exception Not_open

(* Newest snapshot generation that both checksums (Atomic_io envelope) and
   decodes — the generation fallback extended to the payload layer. *)
let load_snapshot ~sdir : snapshot option =
  Option.map snd (Atomic_io.load_latest ~dir:sdir ~decode:decode_snapshot)

(** The one loader, behind recovery at {!create}, rehydration and snapshot
    install: rebuild [entry]'s engine and log position from its directory
    and make it [Live], with every replayed op counted in
    [ops_since_snap].  Raises [Not_open], or
    [Session.Error (Recovery_failed _)] on anything that cannot be
    attributed to a mid-write crash; the entry is untouched then. *)
let load_locked mgr entry : live =
  let session = entry.sid in
  let dir = Option.get entry.dir in
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
        | [] -> raise Not_open
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
  if !was_closed then raise Not_open;
  (* Appends must land in a segment newer than any snapshot generation
     present on disk — even one skipped as corrupt — so every fallback
     path still reads them. *)
  let active_seg = max 0 (max last_seg (newest_gen_present + 1)) in
  let seg_chain, seg_records =
    if active_seg = last_seg then
      List.fold_left (fun (c, n) p -> (chain_add c p, n + 1)) (0L, 0) !last_records
    else (0L, 0)
  in
  let l = { incr; wal = None } in
  entry.source <- source;
  entry.hash <- hash;
  entry.expect_hash <- expect_hash;
  entry.e_state <- Live l;
  entry.next_lsn <- !max_lsn + 1;
  entry.active_seg <- active_seg;
  entry.seg_chain <- seg_chain;
  entry.seg_records <- seg_records;
  entry.ops_since_snap <- !replayed;
  l

(* ---- the write path ----------------------------------------------------------------- *)

let emit mgr ev = match mgr.cfg.repl with Some s -> s.rs_emit ev | None -> ()

(* Wait for the group fsync covering an op's ticket, raising its failure
   as a typed error. *)
let settle mgr (ticket : int option) : unit =
  match (ticket, mgr.wal_group) with
  | Some tk, Some g -> io_guard (fun () -> Wal.Group.wait g tk)
  | _ -> ()

(* The commit half of the log step: apply the op to the engine and
   advance the lsn. *)
let commit_locked entry (l : live) op =
  (match op with
  | Op_assert _ | Op_retract _ ->
      apply_change l.incr op;
      entry.ops_since_snap <- entry.ops_since_snap + 1
  | Op_open _ | Op_close _ -> ());
  entry.next_lsn <- op_lsn op + 1

(** The one write path.  Every record a session logs — a local open,
    assert, retract or close, and every replicated one on a follower — is
    appended here: open the writer if needed, append, fold the record
    into the segment's checksum chain and count it.  A segment that
    [Wal.open_append] refuses quarantines the session as
    [Recovery_failed].  Once the record is in the log the op is
    committed: the engine applies it and the lsn advances before anything
    else runs, and only then is the record shipped to followers, so a
    shipping failure may fail the reply but never un-applies the op.
    [payload] is [op]'s record: its encoding, or on a follower the
    primary's exact bytes; a session without a log never forces it.
    Returns the group-commit ticket the caller must settle (outside the
    lock) before acknowledging, when one exists. *)
let log_locked mgr entry (l : live) op (payload : string Lazy.t) : int option =
  match entry.dir with
  | None ->
      commit_locked entry l op;
      None
  | Some dir ->
      let payload = Lazy.force payload in
      let w =
        match l.wal with
        | Some w -> w
        | None ->
            let w =
              try
                io_guard (fun () ->
                    Atomic_io.mkdir_p dir;
                    Wal.open_append ~sync:mgr.cfg.wal_sync ?group:mgr.wal_group
                      ~path:(Segments.path ~dir entry.active_seg) ())
              with Wal.Unwritable { tail; _ } ->
                mgr.dstats.recovery_failures <- mgr.dstats.recovery_failures + 1;
                quarantine_locked entry
                  (Exec_error.Recovery_failed
                     {
                       session = entry.sid;
                       reason =
                         Fmt.str "log segment %s is unwritable: %s"
                           (Segments.name entry.active_seg) (Wal.tail_string tail);
                     })
            in
            l.wal <- Some w;
            w
      in
      let ticket =
        try io_guard (fun () -> Wal.append_ticket w payload)
        with e ->
          (* A failed append may leave part of its record behind: drop the
             writer, and the next append reopens the segment, truncating the
             torn tail.  Closing flushes best-effort, so first settle the
             records before it; a failed fsync then reaches their waiters. *)
          (try settle mgr (Some mgr.max_ticket) with Session.Error _ -> ());
          Wal.close w;
          l.wal <- None;
          raise e
      in
      (match ticket with Some tk -> mgr.max_ticket <- max mgr.max_ticket tk | None -> ());
      entry.seg_chain <- chain_add entry.seg_chain payload;
      entry.seg_records <- entry.seg_records + 1;
      mgr.dstats.wal_appends <- mgr.dstats.wal_appends + 1;
      mgr.dstats.wal_bytes <- mgr.dstats.wal_bytes + String.length payload + Wal.record_header_len;
      commit_locked entry l op;
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

(* The acknowledgement half of a write, taken under the manager lock once
   its commit shipped and run OUTSIDE it: wait for the group fsync
   covering the op's ticket, then for the replication barrier on the op's
   frames (which may raise Fenced / Ack_timeout to veto the
   acknowledgement). *)
let acknowledgement_locked mgr (ticket : int option) : unit -> unit =
  let barrier = match mgr.cfg.repl with Some s -> s.rs_barrier () | None -> ignore in
  fun () ->
    settle mgr ticket;
    barrier ()

(** Wait until every WAL record appended so far is on stable storage — the
    follower's batch-apply path appends many records asynchronously and
    settles them with one flush before acknowledging. *)
let flush mgr : unit =
  let tk = locked mgr (fun () -> mgr.max_ticket) in
  if tk >= 0 then settle mgr (Some tk)

(* The one open, local or replicated: register a fresh entry for [incr]
   at segment [seg] and log its open record [op], first removing any
   directory a crash left under its name. *)
let open_locked mgr ~sid ~seg incr op payload : entry * int option =
  match op with
  | Op_open { expect_hash; hash; source; _ } ->
      let dir = Option.map (fun sd -> session_dir sd sid) mgr.cfg.state_dir in
      let l = { incr; wal = None } in
      let entry = make_entry mgr ~sid ~dir ~source ~hash ?expect_hash ~active_seg:seg (Live l) in
      Option.iter rm_rf dir;
      let ticket = log_locked mgr entry l op payload in
      Hashtbl.replace mgr.entries sid entry;
      (entry, ticket)
  | Op_assert _ | Op_retract _ | Op_close _ -> invalid_arg "Durable.open_locked"

(* The one close, local or replicated.  A query still running on the
   session finishes on its snapshot.  The close record is made durable
   before the directory goes, so a crash between the two replays as a
   clean close.  A close whose record cannot be made durable raises the
   typed error and quarantines the session instead: after a failed write
   or fsync neither the record nor the log can be trusted, and a retried
   close discards it. *)
let close_locked mgr entry (l : live) op payload =
  (try settle mgr (log_locked mgr entry l op payload)
   with Session.Error e -> quarantine_locked entry e);
  release_wal entry.e_state;
  Incr.close l.incr;
  Option.iter rm_rf entry.dir;
  entry.e_state <- Closed

(* The one rotation, once snapshot generation [gen] of [entry] is durable
   — by compaction or by adopting a replicated snapshot.  The generation
   folds in every op so far, so the next append opens a segment past it
   with a fresh chain, and segments no retained generation needs are
   pruned. *)
let rotate_locked entry dir gen =
  if gen >= entry.active_seg then begin
    release_wal entry.e_state;
    entry.active_seg <- gen + 1;
    entry.seg_chain <- 0L;
    entry.seg_records <- 0
  end;
  entry.ops_since_snap <- 0;
  prune_segments dir

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
            Atomic_io.save ~dir:(snap_dir dir) ~keep:keep_snapshots encoded)
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
      rotate_locked entry dir gen;
      emit mgr (Ev_snapshot { sid = entry.sid; gen; lsn = s.sn_lsn; payload = encoded })
  | _ -> ()

(* Compact after an op has committed, or to spill.  The op stands
   whatever happens here: a failed snapshot is counted, never raised, and
   the next op retries it.  Returns whether the snapshot was taken. *)
let try_compact_locked mgr entry =
  match compact_locked mgr entry with
  | () -> true
  | exception Session.Error _ ->
      mgr.dstats.snapshot_failures <- mgr.dstats.snapshot_failures + 1;
      false

(* Spill a cold session: make the disk state current (a fresh snapshot if
   any op is unsnapshotted), release the writer, drop the in-memory
   engine.  A session whose snapshot fails stays live. *)
let spill_locked mgr entry =
  match entry.e_state with
  | Live l when entry.dir <> None ->
      if entry.ops_since_snap = 0 || try_compact_locked mgr entry then begin
        release_wal entry.e_state;
        entry.last_stats <- Incr.stats l.incr;
        entry.e_state <- Spilled;
        mgr.dstats.evictions <- mgr.dstats.evictions + 1
      end
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
              | Live _ when now -. e.last_used > ttl -> spill_locked mgr e
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
            |> List.sort (fun a b -> compare a.last_used b.last_used)
            |> List.filteri (fun i _ -> i < excess)
            |> List.iter (spill_locked mgr))

(* Hydrated handle for a touch; refreshes the LRU clock.  A spilled
   session is loaded back, and one whose state no longer loads is
   quarantined.  A touch never spills the entry it hands back: caps are
   enforced once the operation is done with its entry, or has taken its
   snapshot. *)
let touch_live_locked mgr entry : live =
  entry.last_used <- mgr.cfg.now ();
  match entry.e_state with
  | Live l -> l
  | Spilled -> (
      match load_locked mgr entry with
      | l ->
          mgr.dstats.rehydrations <- mgr.dstats.rehydrations + 1;
          mgr.dstats.wal_replayed <- mgr.dstats.wal_replayed + entry.ops_since_snap;
          l
      | exception Not_open ->
          (* a spilled session's state vanished from under us *)
          mgr.dstats.recovery_failures <- mgr.dstats.recovery_failures + 1;
          quarantine_locked entry
            (Exec_error.Recovery_failed
               { session = entry.sid; reason = "no valid snapshot and no open record" })
      | exception Session.Error e ->
          mgr.dstats.recovery_failures <- mgr.dstats.recovery_failures + 1;
          quarantine_locked entry (as_recovery_failed ~session:entry.sid e))
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

(* Every write (open, assert, retract, close) calls this before it logs,
   so a ship segment that is full, or whose last append failed, takes no
   frame of the write. *)
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
      entries = Hashtbl.create 16;
      dstats =
        {
          wal_appends = 0;
          wal_bytes = 0;
          wal_replayed = 0;
          snapshots = 0;
          snapshot_failures = 0;
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
           Some (Wal.Group.create ())
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
            let entry = make_entry mgr ~sid ~dir:(Some dir) ~next_lsn:0 Spilled in
            match load_locked mgr entry with
            | _ ->
                Hashtbl.replace mgr.entries sid entry;
                mgr.dstats.recovered <- mgr.dstats.recovered + 1;
                mgr.dstats.wal_replayed <- mgr.dstats.wal_replayed + entry.ops_since_snap
            | exception Not_open -> rm_rf dir
            | exception Session.Error e ->
                entry.e_state <- Failed (as_recovery_failed ~session:sid e);
                Hashtbl.replace mgr.entries sid entry;
                mgr.dstats.recovery_failures <- mgr.dstats.recovery_failures + 1
          end)
        names;
      locked mgr (fun () -> enforce_caps_locked mgr));
  mgr

(* ---- operations --------------------------------------------------------------------- *)

(* Every write below comes in two halves.  The commit ([commit_open],
   [commit_assert], [commit_retract]) validates, logs, applies and ships
   under the manager lock; a later write or query sees it as soon as it
   returns.  It returns the write's acknowledgement, still owed: calling
   it waits for the record's group fsync and then for the replication
   barrier, outside any lock, and raises the typed error that vetoes the
   acknowledgement.  A caller may commit more writes before it calls an
   earlier one's, so several writes share one fsync and one follower ack;
   it acknowledges a write only once that call returned.  [open_session],
   [assert_fact], [retract_fact] and [close] do both halves in turn.  A
   close settles its record under the lock, before it removes the
   session's directory, so its acknowledgement waits only for the barrier. *)

(** Commit a session open.  The program is compiled (shared plan cache)
    and validated {e before} anything is persisted, so a rejected open
    leaves no on-disk trace.  Returns the program hash and the open's
    acknowledgement. *)
let commit_open mgr ~sid ?expect_hash source : string * (unit -> unit) =
  locked mgr (fun () ->
      require_primary mgr;
      if Hashtbl.mem mgr.entries sid then invalid_input "session %s already open" sid;
      let incr =
        Incr.open_session ~config:mgr.cfg.interp ?expect_hash ~spec:mgr.cfg.spec source
      in
      let hash = Incr.program_hash incr in
      let op = Op_open { expect_hash; hash; spec = spec_name_of mgr; source } in
      maybe_rotate_ship_locked mgr;
      let _, ticket = open_locked mgr ~sid ~seg:0 incr op (lazy (encode_op op)) in
      enforce_caps_locked mgr;
      (hash, acknowledgement_locked mgr ticket))

(** Open a session and wait for its acknowledgement.  Returns the program
    hash. *)
let open_session mgr ~sid ?expect_hash source : string =
  let hash, ack = commit_open mgr ~sid ?expect_hash source in
  ack ();
  hash

(* The validate → log → apply commit shared by {!commit_assert} and
   {!commit_retract}: [op lsn] is the change to commit at [lsn]. *)
let commit_change mgr ~sid op : unit -> unit =
  locked mgr (fun () ->
      require_primary mgr;
      maybe_rotate_ship_locked mgr;
      let entry = find_entry mgr sid in
      let l = touch_live_locked mgr entry in
      let op = check_change l.incr (op entry.next_lsn) in
      let ticket = log_locked mgr entry l op (lazy (encode_op op)) in
      if entry.dir <> None && entry.ops_since_snap >= mgr.cfg.snapshot_every then
        ignore (try_compact_locked mgr entry);
      enforce_caps_locked mgr;
      acknowledgement_locked mgr ticket)

(** Commit an assert: validate (raising exactly what {!Incr.assert_fact}
    would, without mutating), append the op to the WAL, then apply.
    Returns the assert's acknowledgement; once it returns, the assert is
    both valid and durable. *)
let commit_assert mgr ~sid ~pred ?prob ?me_group tup : unit -> unit =
  commit_change mgr ~sid (fun lsn ->
      Op_assert { lsn; pred; input = { Provenance.Input.prob; me_group }; tuple = tup })

(** Commit a retract; same validate → log → apply protocol as
    {!commit_assert}. *)
let commit_retract mgr ~sid ~pred tup : unit -> unit =
  commit_change mgr ~sid (fun lsn -> Op_retract { lsn; pred; tuple = tup })

(** Assert a fact and wait for its acknowledgement. *)
let assert_fact mgr ~sid ~pred ?prob ?me_group tup =
  commit_assert mgr ~sid ~pred ?prob ?me_group tup ()

(** Retract a fact and wait for its acknowledgement. *)
let retract_fact mgr ~sid ~pred tup = commit_retract mgr ~sid ~pred tup ()

(* A read takes its session's snapshot under the manager lock (the touch
   rehydrates a spilled session, and the cap sweep runs) and evaluates it
   outside the lock. *)
let snapshot mgr ~sid ?outputs () : Incr.snapshot =
  locked mgr (fun () ->
      let l = touch_live_locked mgr (find_entry mgr sid) in
      let s = Incr.snapshot ?outputs l.incr in
      enforce_caps_locked mgr;
      s)

(** Answer a query.  Queries never touch the log — they change no durable
    state (a query only runs the program over a snapshot of the in-memory
    overlay). *)
let query ?outputs ?budget mgr ~sid () : Session.result =
  Incr.run ?budget (snapshot mgr ~sid ?outputs ())

(** The differential oracle for tests and benchmarks. *)
let run_cold ?outputs mgr ~sid () : Session.result =
  Incr.oracle (snapshot mgr ~sid ?outputs ())

(** Commit a session close: log the close and wait for it to be durable,
    delete the session's on-disk state, and retire the entry.  The sid
    stays registered as closed — re-opening it in the same process is
    "already open".  Closing a quarantined session discards its state.
    A spilled session is rehydrated to log its close; if its state no
    longer loads, the close raises [Recovery_failed].  A close whose
    record cannot be made durable raises the typed I/O error and
    quarantines the session: after a failed fsync neither the record nor
    the log can be trusted.  A retried close discards it in both cases.
    A query still running on the session finishes on its snapshot.
    Returns the acknowledgement: it waits for the barrier, then returns
    the final statistics, a live session's read then, a spilled or
    quarantined one's as they were when it spilled or failed. *)
let commit_close mgr ~sid : unit -> Incr.session_stats =
  locked mgr (fun () ->
      require_primary mgr;
      let entry = find_entry mgr sid in
      let final =
        match entry.e_state with
        | Closed -> invalid_input "session is closed"
        | Failed _ ->
            Option.iter rm_rf entry.dir;
            entry.e_state <- Closed;
            Fun.const entry.last_stats
        | Spilled | Live _ ->
            (* a spilled session keeps the statistics it spilled with; the
               engine rehydrated to log its close starts from zero *)
            let spilled = match entry.e_state with Spilled -> true | _ -> false in
            let l = touch_live_locked mgr entry in
            if not spilled then entry.last_stats <- Incr.stats l.incr;
            let op = Op_close { lsn = entry.next_lsn } in
            maybe_rotate_ship_locked mgr;
            close_locked mgr entry l op (lazy (encode_op op));
            if spilled then Fun.const entry.last_stats else fun () -> Incr.stats l.incr
      in
      (* the record is settled already: only the barrier is owed *)
      let barrier = acknowledgement_locked mgr None in
      fun () ->
        barrier ();
        final ())

(** Close a session and wait for its acknowledgement; its final statistics. *)
let close mgr ~sid : Incr.session_stats = commit_close mgr ~sid ()

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

(** Run the idle-TTL / LRU-cap sweep now (it also runs after every open,
    write and replicated op, and once a query has taken its snapshot). *)
let sweep mgr = locked mgr (fun () -> enforce_caps_locked mgr)

(** Force a compaction snapshot of one session (test hook). *)
let compact mgr ~sid =
  locked mgr (fun () ->
      let entry = find_entry mgr sid in
      let _ = touch_live_locked mgr entry in
      compact_locked mgr entry)

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

(* Quarantine [entry] as diverged and raise. *)
let diverged mgr entry ~segment fmt =
  Fmt.kstr
    (fun reason ->
      mgr.dstats.divergences <- mgr.dstats.divergences + 1;
      quarantine_locked entry
        (Exec_error.Replication_diverged { session = entry.sid; segment; reason }))
    fmt

(** What a replicated frame did here.  Judging a frame and applying it is
    one call under the manager lock, so no write can slip in between. *)
type verdict =
  | Applied  (** the frame extended the local replay *)
  | Stale  (** already replayed here, or the session is closed *)
  | Gap
      (** frames are missing before it, or the session is quarantined: the
          frame changes nothing, and only a snapshot transfer brings the
          session on *)

(** Apply one replicated op at exactly ([seg], [lsn]) through the same
    open, log step and close as a local write, verifying the checksum
    chain it extends before logging it.  An op the replay already holds is
    [Stale], and one the replay has not reached is a [Gap].  The record is
    appended to the local WAL asynchronously (group ticket); call {!flush}
    before acknowledging a batch. *)
let apply_remote mgr ~sid ~seg ~lsn ~chain ~payload : verdict =
  locked mgr (fun () ->
      if mgr.cfg.state_dir = None then
        invalid_input "remote apply requires a state dir";
      let decode () =
        try decode_op payload
        with Codec.Decode msg ->
          diverged_no_entry ~session:sid ~segment:seg "undecodable replicated record: %s"
            msg
      in
      let verdict =
        match Hashtbl.find_opt mgr.entries sid with
        | None when lsn <> 0 -> Gap (* lagged past the session's open *)
        | None -> (
            match decode () with
            | Op_open { expect_hash; hash; spec; source } as op ->
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
                let entry, _ = open_locked mgr ~sid ~seg incr op (Lazy.from_val payload) in
                if not (Int64.equal entry.seg_chain chain) then
                  diverged mgr entry ~segment:seg "checksum chain mismatch on open";
                Applied
            | Op_assert _ | Op_retract _ | Op_close _ ->
                diverged_no_entry ~session:sid ~segment:seg
                  "replicated op for unknown session")
        | Some { e_state = Closed; _ } -> Stale
        | Some { e_state = Failed _; _ } -> Gap
        | Some e when lsn < e.next_lsn -> Stale
        | Some e when lsn > e.next_lsn || seg <> e.active_seg -> Gap
        | Some entry ->
            let l = touch_live_locked mgr entry in
            let op =
              match decode () with
              | Op_open _ -> invalid_input "replicated open for existing session %s" sid
              | Op_close _ as op -> op
              | (Op_assert _ | Op_retract _) as op -> (
                  try check_change l.incr op
                  with Session.Error e ->
                    diverged mgr entry ~segment:seg "replicated %s no longer validates: %s"
                      (match op with Op_assert _ -> "assert" | _ -> "retract")
                      (Session.error_string e))
            in
            if not (Int64.equal (chain_add entry.seg_chain payload) chain) then
              diverged mgr entry ~segment:seg "checksum chain mismatch after lsn %d" lsn;
            (match op with
            | Op_close _ ->
                entry.last_stats <- Incr.stats l.incr;
                close_locked mgr entry l op (Lazy.from_val payload)
            | _ -> ignore (log_locked mgr entry l op (Lazy.from_val payload)));
            Applied
      in
      if verdict = Applied then begin
        mgr.dstats.remote_applied <- mgr.dstats.remote_applied + 1;
        enforce_caps_locked mgr
      end;
      verdict)

(** Verify a sealed segment against the local replay: same last lsn, same
    record count, same checksum chain.  Rotation itself happens when the
    snapshot that follows the seal is adopted.  A seal of a segment the
    replay has rotated past, or of a session unknown or closed here, is
    [Stale].  A seal the replay has not reached is a [Gap]: frames were
    missed, as after a failed ship append, and the snapshot that follows
    the seal reinstalls the session. *)
let seal_remote mgr ~sid ~seg ~last_lsn ~chain ~records : verdict =
  locked mgr (fun () ->
      match Hashtbl.find_opt mgr.entries sid with
      | None | Some { e_state = Closed; _ } -> Stale
      | Some { e_state = Failed _; _ } -> Gap
      | Some e when seg < e.active_seg -> Stale
      | Some e when seg > e.active_seg || last_lsn >= e.next_lsn -> Gap
      | Some entry ->
          if entry.next_lsn - 1 <> last_lsn then
            diverged mgr entry ~segment:seg "segment sealed at lsn %d but replay reached %d"
              last_lsn (entry.next_lsn - 1);
          if entry.seg_records <> records then
            diverged mgr entry ~segment:seg
              "segment sealed with %d records but replay holds %d" records entry.seg_records;
          if not (Int64.equal entry.seg_chain chain) then
            diverged mgr entry ~segment:seg "checksum chain mismatch at seal (%d records)"
              records;
          Applied)

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
              Atomic_io.save_at ~dir:(snap_dir dir) ~gen ~keep:keep_snapshots
                payload);
          mgr.dstats.snapshots <- mgr.dstats.snapshots + 1;
          rotate_locked e dir gen;
          Adopted
      | _ -> (
          (* unknown, quarantined, or behind: full transfer *)
          Option.iter (fun e -> release_wal e.e_state) existing;
          let dir = session_dir state_dir sid in
          io_guard (fun () ->
              rm_rf dir;
              Atomic_io.save_at ~dir:(snap_dir dir) ~gen ~keep:keep_snapshots
                payload);
          let entry = make_entry mgr ~sid ~dir:(Some dir) Spilled in
          match load_locked mgr entry with
          | _ ->
              Hashtbl.replace mgr.entries sid entry;
              mgr.dstats.remote_installs <- mgr.dstats.remote_installs + 1;
              Installed
          | exception Not_open ->
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
