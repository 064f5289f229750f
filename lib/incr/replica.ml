(** WAL shipping, hot-standby replay, and supervised failover over
    {!Durable}.

    A {b primary} registry streams every committed WAL record — plus
    segment seals and snapshot generations — as checksummed {e frames}
    into a {e ship log}: an append-only directory of {!Scallop_utils.Wal}
    segments that one or more follower processes tail.  A {b follower}
    replays the frames through {!Durable}'s remote-apply commit path into
    warm standby sessions (queries allowed, writes refused), writes
    cursor acknowledgements into its own ack log, and can be {e promoted}
    at any moment — after which it accepts writes and the deposed primary
    is fenced.

    The transport is the filesystem: primary and followers share the ship
    directory (same machine or a shared mount).  The ship log itself is
    written without fsync — it is transport, not the durability story;
    durability is each node's own fsync'd session WAL.  A follower fsyncs
    its local WAL {e before} acknowledging a frame, so a
    quorum-acknowledged write is on stable storage on a quorum of nodes.

    {2 Frame protocol}

    Each ship segment is a {!Scallop_utils.Wal} file whose records encode:

    - [F_epoch]: opens every segment — the writer's fencing epoch and id;
    - [F_event (Ev_op _)]: one committed session op — sid, (segment, lsn)
      position, the {e exact} WAL record bytes, and the per-segment FNV-1a
      checksum chain after the record;
    - [F_event (Ev_seal _)]: a session segment closed at compaction,
      carrying last lsn, record count, and final chain for divergence
      detection;
    - [F_event (Ev_snapshot _)]: a snapshot generation — the catch-up bridge for
      followers that lagged past segment pruning, and the barrier content
      heading each ship segment (every segment opens with snapshots of
      all live sessions, so a follower can start from the newest segment
      alone and old segments can be pruned).

    {2 Fencing}

    The ship directory holds an [EPOCH] file naming the current epoch and
    its holder.  A primary claims epoch [e+1] at startup.  Promotion
    drains the ship log, claims a strictly larger epoch (refusing with a
    typed [Fenced] error otherwise — double promotion), fsyncs a fencing
    ack record, and flips the standby to accepting writes.  A primary
    verifies the epoch on every acknowledgement barrier: acks from other
    epochs do not count toward quorum, and an epoch bump observed in the
    [EPOCH] file or an ack log permanently fences the primary — every
    subsequent write errors with [Fenced] rather than acknowledging data
    the new primary may lack. *)

open Scallop_core
module Wal = Scallop_utils.Wal
module Atomic_io = Scallop_utils.Atomic_io
module Codec = Scallop_utils.Codec

let invalid_input fmt = Session.invalid_input fmt

(* ---- ship-directory layout ---------------------------------------------------- *)

module Ship = Atomic_io.Family (struct
  let prefix = "ship-"
  let suffix = ".log"
end)

let ack_name fid = "ack-" ^ Durable.encode_sid fid ^ ".log"
let ack_path dir fid = Filename.concat dir (ack_name fid)

let ack_fid_of_name name =
  let n = String.length name in
  if n > 8 && String.equal (String.sub name 0 4) "ack-" && Filename.check_suffix name ".log"
  then Some (Durable.decode_sid (String.sub name 4 (n - 8)))
  else None

let epoch_path dir = Filename.concat dir "EPOCH"
let hb_path dir = Filename.concat dir "HEARTBEAT"

(* The EPOCH file rides in an Atomic_io envelope: atomically replaced,
   checksummed, torn-write-proof.  Payload is "<epoch> <holder>". *)
let read_epoch dir : (int * string) option =
  match Atomic_io.read_file ~path:(epoch_path dir) with
  | Error _ -> None
  | Ok payload -> (
      match String.index_opt payload ' ' with
      | None -> None
      | Some i -> (
          match int_of_string_opt (String.sub payload 0 i) with
          | None -> None
          | Some e -> Some (e, String.sub payload (i + 1) (String.length payload - i - 1))))

let write_epoch dir ~epoch ~holder =
  Atomic_io.write_file ~path:(epoch_path dir) (Printf.sprintf "%d %s" epoch holder)

(* ---- frame codec --------------------------------------------------------------- *)

(* A ship frame is a {!Durable.repl_event} or the epoch frame heading each
   segment. *)
type frame = F_epoch of { epoch : int; primary : string } | F_event of Durable.repl_event

let encode_frame : frame -> string =
  Codec.encode (fun b -> function
    | F_epoch { epoch; primary } ->
        Codec.add_char b 'E';
        Codec.add_int b epoch;
        Codec.add_str b primary
    | F_event (Durable.Ev_op { sid; seg; lsn; chain; payload }) ->
        Codec.add_char b 'O';
        Codec.add_str b sid;
        Codec.add_int b seg;
        Codec.add_int b lsn;
        Codec.add_i64 b chain;
        Codec.add_str b payload
    | F_event (Durable.Ev_seal { sid; seg; last_lsn; chain; records }) ->
        Codec.add_char b 'S';
        Codec.add_str b sid;
        Codec.add_int b seg;
        Codec.add_int b last_lsn;
        Codec.add_i64 b chain;
        Codec.add_int b records
    | F_event (Durable.Ev_snapshot { sid; gen; lsn; payload }) ->
        Codec.add_char b 'N';
        Codec.add_str b sid;
        Codec.add_int b gen;
        Codec.add_int b lsn;
        Codec.add_str b payload)

let decode_frame : string -> frame =
  Codec.decode "frame" (fun r ->
      match Codec.char r with
      | 'E' ->
          let epoch = Codec.int r in
          let primary = Codec.str r in
          F_epoch { epoch; primary }
      | 'O' ->
          let sid = Codec.str r in
          let seg = Codec.int r in
          let lsn = Codec.int r in
          let chain = Codec.i64 r in
          let payload = Codec.str r in
          F_event (Durable.Ev_op { sid; seg; lsn; chain; payload })
      | 'S' ->
          let sid = Codec.str r in
          let seg = Codec.int r in
          let last_lsn = Codec.int r in
          let chain = Codec.i64 r in
          let records = Codec.int r in
          F_event (Durable.Ev_seal { sid; seg; last_lsn; chain; records })
      | 'N' ->
          let sid = Codec.str r in
          let gen = Codec.int r in
          let lsn = Codec.int r in
          let payload = Codec.str r in
          F_event (Durable.Ev_snapshot { sid; gen; lsn; payload })
      | ch -> Codec.fail "unknown frame tag %C" ch)

(* Ack records: the follower's durable cursor.  (epoch, seg, idx) says
   "every frame of ship segment [seg] up to index [idx] is applied and
   locally fsync'd, under epoch [epoch]".  [fence] marks a promotion. *)
type ack = { a_epoch : int; a_seg : int; a_idx : int; a_fence : bool }

let encode_ack : ack -> string =
  Codec.encode ~size:32 (fun b a ->
      Codec.add_int b a.a_epoch;
      Codec.add_int b a.a_seg;
      Codec.add_int b a.a_idx;
      Codec.add_bool b a.a_fence)

let decode_ack : string -> ack =
  Codec.decode "ack" (fun r ->
      let a_epoch = Codec.int r in
      let a_seg = Codec.int r in
      let a_idx = Codec.int r in
      let a_fence = Codec.bool r in
      { a_epoch; a_seg; a_idx; a_fence })

(* ---- primary -------------------------------------------------------------------- *)

type ack_mode = Ack_none | Ack_async | Ack_quorum

let ack_mode_string = function
  | Ack_none -> "none"
  | Ack_async -> "async"
  | Ack_quorum -> "quorum"

module Primary = struct
  type stats = {
    mutable shipped : int;  (** frames written to the ship log *)
    mutable rotations : int;
    mutable barriers : int;
    mutable barrier_wait : float;  (** cumulative seconds blocked in quorum waits *)
    mutable max_barrier_wait : float;
  }

  type t = {
    dir : string;
    id : string;
    epoch : int;
    ack : ack_mode;
    cluster : int;  (** follower count quorum is computed against *)
    ack_timeout : float;
    segment_frames : int;  (** rotate the ship log every this many frames *)
    retain : int;  (** rotated ship segments kept behind the active one *)
    pump : (unit -> unit) option;
        (** test hook: advance in-process followers instead of sleeping *)
    m : Mutex.t;
    mutable wal : Wal.t;
    mutable seg : int;
    mutable frames : int;  (** frames in the active ship segment *)
    mutable torn : bool;
        (** an append to the active segment failed, maybe leaving part of a
            frame a follower has read: the segment takes no further frame,
            and the next write rotates past it *)
    mutable fenced : int option;  (** the epoch that deposed us *)
    mutable acks : (string * ack) list;  (** newest ack per follower *)
    mutable tails : (string * Wal.Tail.t) list;
    stats : stats;
  }

  let heartbeat p =
    try
      Atomic_io.write_file ~path:(hb_path p.dir)
        (Printf.sprintf "%d %s" p.epoch p.id)
    with Unix.Unix_error _ | Sys_error _ -> ()

  let ship_locked p (f : frame) =
    if p.torn then
      raise
        (Session.Error
           (Exec_error.Runtime_error
              { msg = Fmt.str "ship segment %d failed an append and awaits rotation" p.seg }));
    (try Durable.io_guard (fun () -> Wal.append p.wal (encode_frame f))
     with e ->
       p.torn <- true;
       raise e);
    p.frames <- p.frames + 1;
    p.stats.shipped <- p.stats.shipped + 1

  (** Claim the next fencing epoch and open a fresh ship segment.  A
      restarting primary bumps the epoch — followers accept any epoch at
      least as new as the one they last saw. *)
  let create ~dir ~id ?(ack = Ack_async) ?(cluster = 1) ?(ack_timeout = 5.0)
      ?(segment_frames = 4096) ?(retain = 2) ?pump () : t =
    if cluster < 1 then invalid_arg "Replica.Primary.create: cluster must be >= 1";
    if segment_frames < 2 then
      invalid_arg "Replica.Primary.create: segment_frames must be >= 2";
    Durable.io_guard (fun () -> Atomic_io.mkdir_p dir);
    let cur = match read_epoch dir with Some (e, _) -> e | None -> 0 in
    let epoch = cur + 1 in
    Durable.io_guard (fun () -> write_epoch dir ~epoch ~holder:id);
    let seg = match List.rev (Ship.list ~dir) with s :: _ -> s + 1 | [] -> 1 in
    let wal =
      Durable.io_guard (fun () -> Wal.open_append ~sync:false ~path:(Ship.path ~dir seg) ())
    in
    let p =
      {
        dir;
        id;
        epoch;
        ack;
        cluster;
        ack_timeout;
        segment_frames;
        retain;
        pump;
        m = Mutex.create ();
        wal;
        seg;
        frames = 0;
        torn = false;
        fenced = None;
        acks = [];
        tails = [];
        stats =
          {
            shipped = 0;
            rotations = 0;
            barriers = 0;
            barrier_wait = 0.;
            max_barrier_wait = 0.;
          };
      }
    in
    ship_locked p (F_epoch { epoch; primary = id });
    heartbeat p;
    p

  (* Drain every follower ack log, keeping the newest record per
     follower.  Any ack from a larger epoch — fencing or not — means a
     follower was promoted over us. *)
  let refresh_acks_locked p =
    (match Sys.readdir p.dir with
    | exception Sys_error _ -> ()
    | names ->
        Array.iter
          (fun name ->
            match ack_fid_of_name name with
            | Some fid when not (List.mem_assoc fid p.tails) ->
                p.tails <-
                  (fid, Wal.Tail.create ~path:(Filename.concat p.dir name) ()) :: p.tails
            | _ -> ())
          names);
    List.iter
      (fun (fid, tail) ->
        match Wal.Tail.poll tail with
        | Error _ -> ()
        | Ok records ->
            List.iter
              (fun r ->
                match decode_ack r with
                | a ->
                    p.acks <- (fid, a) :: List.remove_assoc fid p.acks;
                    if a.a_epoch > p.epoch || (a.a_fence && a.a_epoch >= p.epoch) then
                      p.fenced <-
                        Some
                          (match p.fenced with
                          | Some e -> max e a.a_epoch
                          | None -> a.a_epoch)
                | exception Codec.Decode _ -> ())
              records)
      p.tails

  let check_epoch_locked p =
    match read_epoch p.dir with
    | Some (e, _) when e > p.epoch ->
        p.fenced <- Some (max e (match p.fenced with Some f -> f | None -> 0))
    | _ -> ()

  let check_fenced_locked p =
    match p.fenced with
    | Some e -> raise (Session.Error (Exec_error.Fenced { epoch = p.epoch; current = e }))
    | None -> ()

  (* The acknowledgement barrier of a state-changing op.  [barrier p] is
     taken once the op's frames are shipped and marks the ship position,
     which is the op's commit: its quorum deadline runs [ack_timeout] from
     there, however long the op then waits behind earlier writes.  The
     function it returns runs after the op's local durability is settled.
     Quorum mode blocks until cluster/2+1 followers have acknowledged the
     marked position under our epoch, then verifies the EPOCH file one
     last time — the fencing handshake: a quorum of acks means nothing if
     the epoch has moved.  An op reached past its deadline still polls
     once more before it times out.  [p.m] is held only to read acks and
     fence state, never across the sleep between polls, so other writes
     keep shipping while one waits. *)
  let barrier p =
    let target_seg, target_idx, committed =
      Mutex.protect p.m (fun () -> (p.seg, p.frames, Scallop_utils.Monotonic.now ()))
    in
    let caught (_, (a : ack)) =
      a.a_epoch = p.epoch
      && (a.a_seg > target_seg || (a.a_seg = target_seg && a.a_idx >= target_idx))
    in
    let quorum_wait () =
      let quorum = (p.cluster / 2) + 1 in
      let t0 = Scallop_utils.Monotonic.now () in
      let acked () =
        Mutex.protect p.m (fun () ->
            refresh_acks_locked p;
            check_fenced_locked p;
            List.length (List.filter caught p.acks))
      in
      let rec wait () =
        (match p.pump with Some f -> f () | None -> Unix.sleepf 0.0005);
        let n = acked () in
        if n < quorum then begin
          let waited = Scallop_utils.Monotonic.elapsed_since committed in
          if waited > p.ack_timeout then
            raise (Session.Error (Exec_error.Ack_timeout { acked = n; quorum; waited }));
          wait ()
        end
      in
      if acked () < quorum then wait ();
      Mutex.protect p.m (fun () ->
          check_epoch_locked p;
          check_fenced_locked p;
          let waited = Scallop_utils.Monotonic.elapsed_since t0 in
          p.stats.barrier_wait <- p.stats.barrier_wait +. waited;
          if waited > p.stats.max_barrier_wait then p.stats.max_barrier_wait <- waited)
    in
    fun () ->
      let waits =
        Mutex.protect p.m (fun () ->
            p.stats.barriers <- p.stats.barriers + 1;
            check_fenced_locked p;
            match p.ack with
            | Ack_none -> false
            | Ack_async ->
                (* non-blocking: drain acks for lag accounting and fence
                   detection; verify the epoch file periodically *)
                refresh_acks_locked p;
                if p.stats.barriers land 31 = 0 then check_epoch_locked p;
                check_fenced_locked p;
                false
            | Ack_quorum -> true)
      in
      if waits then quorum_wait ()

  (** The {!Durable.repl_sink} gluing this primary under a registry. *)
  let sink (p : t) : Durable.repl_sink =
    {
      Durable.rs_emit = (fun ev -> Mutex.protect p.m (fun () -> ship_locked p (F_event ev)));
      rs_rotation_due = (fun () -> p.torn || p.frames >= p.segment_frames);
      rs_rotate_begin =
        (fun () ->
          Mutex.protect p.m (fun () ->
              let wal =
                Durable.io_guard (fun () ->
                    Wal.open_append ~sync:false ~path:(Ship.path ~dir:p.dir (p.seg + 1)) ())
              in
              Wal.close p.wal;
              p.wal <- wal;
              p.seg <- p.seg + 1;
              p.frames <- 0;
              p.torn <- false;
              p.stats.rotations <- p.stats.rotations + 1;
              ship_locked p (F_epoch { epoch = p.epoch; primary = p.id })));
      rs_rotate_end =
        (fun () ->
          Mutex.protect p.m (fun () -> Ship.remove_upto ~dir:p.dir (p.seg - p.retain - 1)));
      rs_barrier = (fun () -> barrier p);
    }

  type status = {
    st_epoch : int;
    st_seg : int;
    st_frames : int;
    st_shipped : int;
    st_rotations : int;
    st_barriers : int;
    st_mean_barrier_ms : float;
    st_max_barrier_ms : float;
    st_fenced : int option;
    st_followers : (string * ack) list;
  }

  let status p : status =
    Mutex.protect p.m (fun () ->
        refresh_acks_locked p;
        {
          st_epoch = p.epoch;
          st_seg = p.seg;
          st_frames = p.frames;
          st_shipped = p.stats.shipped;
          st_rotations = p.stats.rotations;
          st_barriers = p.stats.barriers;
          st_mean_barrier_ms =
            (if p.stats.barriers = 0 then 0.
             else 1000. *. p.stats.barrier_wait /. float_of_int p.stats.barriers);
          st_max_barrier_ms = 1000. *. p.stats.max_barrier_wait;
          st_fenced = p.fenced;
          st_followers = List.sort compare p.acks;
        })

  let close p = Mutex.protect p.m (fun () -> Wal.close p.wal)
end

(* ---- follower -------------------------------------------------------------------- *)

module Follower = struct
  type stats = {
    mutable applied : int;  (** op frames applied to the standby *)
    mutable skipped : int;  (** frames skipped (idempotent replay, closed sids) *)
    mutable installs : int;  (** full snapshot transfers *)
    mutable adoptions : int;  (** snapshots adopted as the local compaction point *)
    mutable seals : int;  (** segment seals verified *)
    mutable divergences : int;
  }

  type t = {
    dir : string;
    fid : string;
    mgr : Durable.t;
    m : Mutex.t;
    mutable ack : Wal.t;
    mutable ack_torn : bool;
        (** an append to the ack log failed, maybe leaving part of a record
            the primary has read already: the next ack replaces the log *)
    mutable seg : int;  (** ship segment being tailed; 0 = not attached *)
    mutable idx : int;  (** frames consumed in that segment *)
    mutable tail : Wal.Tail.t option;
    mutable epoch : int;  (** newest epoch observed in the stream *)
    mutable promoted : bool;
    await : (string, unit) Hashtbl.t;  (** sids parked until a snapshot bridges them *)
    mutable last_error : string option;
    stats : stats;
  }

  (** Attach a standby registry to a ship directory.  [mgr] must have a
      state dir (the replica's own durability) and is flipped to standby:
      client writes are refused until {!promote}. *)
  let create ~dir ~fid ~mgr () : t =
    Durable.io_guard (fun () -> Atomic_io.mkdir_p dir);
    Durable.set_standby mgr true;
    let ack =
      Durable.io_guard (fun () -> Wal.open_append ~sync:false ~path:(ack_path dir fid) ())
    in
    {
      dir;
      fid;
      mgr;
      m = Mutex.create ();
      ack;
      ack_torn = false;
      seg = 0;
      idx = 0;
      tail = None;
      epoch = (match read_epoch dir with Some (e, _) -> e | None -> 0);
      promoted = false;
      await = Hashtbl.create 8;
      last_error = None;
      stats =
        {
          applied = 0;
          skipped = 0;
          installs = 0;
          adoptions = 0;
          seals = 0;
          divergences = 0;
        };
    }

  let park f sid = Hashtbl.replace f.await sid ()

  (* Count or park by what [Durable] judged a frame for [sid] to do; a
     parked session takes nothing until a snapshot bridges it. *)
  let judge f sid ~applied (verdict : unit -> Durable.verdict) =
    if Hashtbl.mem f.await sid then f.stats.skipped <- f.stats.skipped + 1
    else
      match verdict () with
      | Durable.Applied -> applied ()
      | Durable.Stale -> f.stats.skipped <- f.stats.skipped + 1
      | Durable.Gap -> park f sid
      | exception Session.Error e ->
          f.stats.divergences <- f.stats.divergences + 1;
          f.last_error <- Some (Session.error_string e);
          park f sid

  let handle_frame f (frame : frame) =
    f.idx <- f.idx + 1;
    match frame with
    | F_epoch { epoch; _ } -> if epoch > f.epoch then f.epoch <- epoch
    | F_event (Durable.Ev_op { sid; seg; lsn; chain; payload }) ->
        judge f sid
          ~applied:(fun () -> f.stats.applied <- f.stats.applied + 1)
          (fun () -> Durable.apply_remote f.mgr ~sid ~seg ~lsn ~chain ~payload)
    | F_event (Durable.Ev_seal { sid; seg; last_lsn; chain; records }) ->
        judge f sid
          ~applied:(fun () -> f.stats.seals <- f.stats.seals + 1)
          (fun () -> Durable.seal_remote f.mgr ~sid ~seg ~last_lsn ~chain ~records)
    | F_event (Durable.Ev_snapshot { sid; gen; payload; _ }) -> (
        try
          (match Durable.install_snapshot f.mgr ~sid ~gen ~payload with
          | Durable.Installed -> f.stats.installs <- f.stats.installs + 1
          | Durable.Adopted -> f.stats.adoptions <- f.stats.adoptions + 1
          | Durable.Skipped -> f.stats.skipped <- f.stats.skipped + 1);
          Hashtbl.remove f.await sid
        with Session.Error e ->
          f.stats.divergences <- f.stats.divergences + 1;
          f.last_error <- Some (Session.error_string e))

  (* Swap in a fresh ack log, renamed over the old one, after a failed
     append.  Appending after the torn bytes would hide every later ack
     from the primary, whose tail reports the damage on each poll; a new
     file is read from its first byte instead. *)
  let replace_ack_log_locked f =
    let path = ack_path f.dir f.fid in
    let tmp = path ^ ".tmp" in
    if Sys.file_exists tmp then Sys.remove tmp;
    let w = Wal.open_append ~sync:false ~path:tmp () in
    (try Unix.rename tmp path
     with e ->
       Wal.close w;
       raise e);
    Wal.close f.ack;
    f.ack <- w;
    f.ack_torn <- false

  (* A failed append leaves [ack_torn] set; every failure is kept as
     [last_error]. *)
  let write_ack_locked f ~fence =
    try
      Durable.io_guard (fun () ->
          if f.ack_torn then replace_ack_log_locked f;
          f.ack_torn <- true;
          Wal.append f.ack
            (encode_ack { a_epoch = f.epoch; a_seg = f.seg; a_idx = f.idx; a_fence = fence });
          f.ack_torn <- false;
          if fence then Wal.sync_now f.ack)
    with Session.Error e as exn ->
      f.last_error <- Some (Session.error_string e);
      raise exn

  (* Move the cursor to ship segment [s]. *)
  let attach_locked f s =
    f.seg <- s;
    f.idx <- 0;
    f.tail <- Some (Wal.Tail.create ~path:(Ship.path ~dir:f.dir s) ())

  let poll_locked f : int =
    if f.promoted then 0
    else begin
      (* re-send a failed ack: its frames are applied, and no later frame
         may come to carry it *)
      if f.ack_torn then write_ack_locked f ~fence:false;
      let progress = ref 0 in
      let continue = ref true in
      while !continue do
        continue := false;
        (match f.tail with
        | Some _ -> ()
        | None -> (
            (* first attach: the newest segment opens with a full barrier,
               so it alone is enough to sync from *)
            match List.rev (Ship.list ~dir:f.dir) with
            | s :: _ -> attach_locked f s
            | [] -> ()));
        match f.tail with
        | None -> ()
        | Some tail -> (
            match Wal.Tail.poll tail with
            | Ok [] -> (
                (* hand-off: the primary only writes one segment at a time,
                   so a newer segment existing means this one is finished *)
                match List.filter (fun s -> s > f.seg) (Ship.list ~dir:f.dir) with
                | s :: _ ->
                    attach_locked f s;
                    continue := true
                | [] -> ())
            | Ok frames ->
                List.iter
                  (fun payload ->
                    match decode_frame payload with
                    | frame -> handle_frame f frame
                    | exception Codec.Decode msg ->
                        f.idx <- f.idx + 1;
                        f.last_error <- Some ("undecodable frame: " ^ msg))
                  frames;
                (* settle local durability for the whole batch with one
                   flush, then acknowledge the new cursor *)
                Durable.flush f.mgr;
                write_ack_locked f ~fence:false;
                progress := !progress + List.length frames;
                continue := true
            | Error reason -> (
                f.last_error <- Some ("ship segment damaged: " ^ reason);
                (* jump forward if the primary has moved on; the barrier
                   heading the next segment resyncs us *)
                match List.filter (fun s -> s > f.seg) (Ship.list ~dir:f.dir) with
                | s :: _ ->
                    attach_locked f s;
                    continue := true
                | [] -> ()))
      done;
      !progress
    end

  (** Consume every frame currently visible in the ship log; returns how
      many were processed.  Safe to call in a tight loop or a poller
      domain; a promoted follower is inert and returns 0. *)
  let poll f : int = Mutex.protect f.m (fun () -> poll_locked f)

  (** Promote this follower: drain the ship log, claim a strictly newer
      fencing epoch (typed [Fenced] rejection otherwise — this is what
      makes a second promotion with a stale epoch fail), fsync a fencing
      ack so the deposed primary observes it, and open the standby for
      writes.  Returns the claimed epoch. *)
  let promote ?epoch f : int =
    Mutex.protect f.m (fun () ->
        if f.promoted then invalid_input "follower %s is already promoted" f.fid;
        let rec drain () = if poll_locked f > 0 then drain () in
        drain ();
        let cur = match read_epoch f.dir with Some (e, _) -> e | None -> f.epoch in
        let e = match epoch with Some e -> e | None -> max cur f.epoch + 1 in
        if e <= cur then
          raise (Session.Error (Exec_error.Fenced { epoch = e; current = cur }));
        Durable.io_guard (fun () -> write_epoch f.dir ~epoch:e ~holder:f.fid);
        f.epoch <- e;
        write_ack_locked f ~fence:true;
        Durable.set_standby f.mgr false;
        f.promoted <- true;
        e)

  (** Seconds since the primary's last heartbeat, if one was ever
      written. *)
  let primary_age f : float option =
    match Unix.stat (hb_path f.dir) with
    | st -> Some (Unix.gettimeofday () -. st.Unix.st_mtime)
    | exception (Unix.Unix_error _ | Sys_error _) -> None

  type status = {
    st_epoch : int;
    st_seg : int;
    st_idx : int;
    st_promoted : bool;
    st_awaiting : int;
    st_applied : int;
    st_skipped : int;
    st_installs : int;
    st_adoptions : int;
    st_seals : int;
    st_divergences : int;
    st_primary_age : float option;
    st_last_error : string option;
    st_sessions : (string * int * int) list;  (** sid, next lsn, active segment *)
  }

  let status f : status =
    Mutex.protect f.m (fun () ->
        {
          st_epoch = f.epoch;
          st_seg = f.seg;
          st_idx = f.idx;
          st_promoted = f.promoted;
          st_awaiting = Hashtbl.length f.await;
          st_applied = f.stats.applied;
          st_skipped = f.stats.skipped;
          st_installs = f.stats.installs;
          st_adoptions = f.stats.adoptions;
          st_seals = f.stats.seals;
          st_divergences = f.stats.divergences;
          st_primary_age = primary_age f;
          st_last_error = f.last_error;
          st_sessions = Durable.session_watermarks f.mgr;
        })

  let close f = Mutex.protect f.m (fun () -> Wal.close f.ack)
end
