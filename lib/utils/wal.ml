(** Crash-consistent write-ahead log segments.

    A segment is an append-only file of checksummed records, the durability
    substrate under {!Scallop_incr.Durable}'s stateful-session state.
    Each record is framed with its payload length and an FNV-1a-64 checksum
    (the same hash {!Atomic_io} uses for snapshots), so a reader can
    distinguish the three states a crash can leave a segment in:

    - {b clean}: every record validates and the file ends exactly at the
      last record's final byte;
    - {b torn}: the tail is an incomplete record — a header cut short, a
      declared payload extending past end-of-file, or a final record whose
      bytes do not hash to their checksum.  This is the signature of a
      crash mid-append; the valid prefix is intact and trustworthy, and
      {!open_append} truncates the tear away before writing anew;
    - {b corrupt}: a record {e before} the tail fails validation while
      well-formed data follows it.  A torn write cannot produce this (a
      crash stops the file, it does not resume it), so it means bit rot or
      tampering — the reader refuses to guess and reports the offset.

    Appends are ordered before acknowledgement: {!append} writes the whole
    record with one [write] and, when the writer was opened with
    [~sync:true], fsyncs before returning, so an acknowledged record
    survives power loss.  With [~sync:false] the record still survives a
    process kill (the page cache outlives the process); only an OS crash
    can lose it.

    File layout (all integers little-endian):
    {v
      bytes 0..7          magic "SCLWAL01"
      then per record:
        u32  payload length
        u64  FNV-1a 64-bit checksum of the payload
        payload bytes
    v} *)

let magic = "SCLWAL01"
let record_header_len = 4 + 8

(* A declared length beyond this is treated as corruption rather than an
   allocation request: no legitimate record (a serialized session op) comes
   within orders of magnitude of it. *)
let max_record_len = 1 lsl 30

let fnv1a64 = Atomic_io.fnv1a64

(* ---- reading ---------------------------------------------------------------- *)

type tail =
  | Clean
  | Torn of { valid_bytes : int }
      (** a crash mid-append left an incomplete tail record; the file prefix
          of [valid_bytes] bytes (magic included) holds every complete
          record *)
  | Corrupt of { offset : int; reason : string }
      (** a non-tail record fails validation: not a crash signature *)

let tail_string = function
  | Clean -> "clean"
  | Torn { valid_bytes } -> Printf.sprintf "torn tail after %d valid bytes" valid_bytes
  | Corrupt { offset; reason } -> Printf.sprintf "corrupt at byte %d: %s" offset reason

(* How a scan over framed records stopped. *)
type stop =
  | End  (** exactly at the end of the buffer *)
  | Partial
      (** at a record that is cut short, or whose checksum fails while it
          is the last thing in the buffer: a crash tear to {!read}, an
          append still in flight to {!Tail.poll} *)
  | Damaged of string  (** at a record no in-flight append explains *)

(** [scan buf off] parses the complete, checksum-valid records of [buf]
    from byte [off], returning them with the offset and reason the scan
    stopped at. *)
let scan (buf : string) (off : int) : string list * int * stop =
  let n = String.length buf in
  let rec go off acc =
    let stop why = (List.rev acc, off, why) in
    if off = n then stop End
    else if n - off < record_header_len then stop Partial
    else
      let len = Int32.to_int (String.get_int32_le buf off) in
      if len < 0 || len > max_record_len then
        stop (Damaged (Printf.sprintf "implausible record length %d" len))
      else
        let next = off + record_header_len + len in
        if next > n then stop Partial
        else
          let payload = String.sub buf (off + record_header_len) len in
          if Int64.equal (fnv1a64 payload) (String.get_int64_le buf (off + 4)) then
            go next (payload :: acc)
          else if next = n then stop Partial
          else stop (Damaged "checksum mismatch")
  in
  go off []

(* Whether [buf] opens with the magic, with a (possibly empty) prefix of
   it cut short, or with anything else. *)
let magic_state buf =
  let n = String.length buf and m = String.length magic in
  if n >= m then if String.equal (String.sub buf 0 m) magic then `Ok else `Bad
  else if String.equal buf (String.sub magic 0 n) then `Short
  else `Bad

(** [read ~path] returns the complete records of the segment in append
    order, together with the state of its tail.  A missing file reads as
    zero records, [Clean] (creating the segment and crashing before the
    magic write leaves the same observable state as never creating it). *)
let read ~path : string list * tail =
  match open_in_bin path with
  | exception Sys_error _ -> ([], Clean)
  | ic -> (
      let raw =
        Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic)
      in
      match magic_state raw with
      | `Short -> ([], Torn { valid_bytes = 0 })
      | `Bad -> ([], Corrupt { offset = 0; reason = "bad magic" })
      | `Ok -> (
          match scan raw (String.length magic) with
          | records, _, End -> (records, Clean)
          | records, offset, Partial -> (records, Torn { valid_bytes = offset })
          | records, offset, Damaged reason -> (records, Corrupt { offset; reason })))

(* ---- incremental tailing ----------------------------------------------------- *)

(** A cursor over a segment that another process (or writer) is still
    appending to.  Each {!Tail.poll} picks up where the last one stopped,
    returning only the records completed since — the replication follower's
    view of the primary's ship log.  A partial frame at end-of-file is
    carried across polls and retried once more bytes land; a complete frame
    whose checksum fails is likewise held back (it may be a write observed
    mid-[write]) and only reported as corruption once bytes exist {e
    beyond} it, which a torn write cannot produce.  A file replaced under
    the path (another inode) or cut back below the bytes already read is
    a new log: the cursor starts over from its first byte. *)
module Tail = struct
  type t = {
    path : string;
    mutable dev : int;  (** device and inode of the file read so far *)
    mutable ino : int;
    mutable file_off : int;  (** next byte to read from the file *)
    mutable started : bool;  (** magic consumed *)
    mutable pending : string;  (** bytes read but not yet framed *)
  }

  let create ~path () = { path; dev = -1; ino = -1; file_off = 0; started = false; pending = "" }

  (** Newly completed records since the previous poll, in append order.
      [Ok []] means "nothing new yet" (including: the file does not exist
      yet, or ends in a partial frame).  [Error reason] means the segment
      is damaged in a way no in-flight append explains. *)
  let poll (t : t) : (string list, string) result =
    (match open_in_bin t.path with
    | exception Sys_error _ -> ()
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let st = Unix.fstat (Unix.descr_of_in_channel ic) in
            let n = st.Unix.st_size in
            if st.st_dev <> t.dev || st.st_ino <> t.ino || n < t.file_off then begin
              t.dev <- st.st_dev;
              t.ino <- st.st_ino;
              t.file_off <- 0;
              t.started <- false;
              t.pending <- ""
            end;
            if n > t.file_off then begin
              seek_in ic t.file_off;
              let fresh = really_input_string ic (n - t.file_off) in
              t.pending <- t.pending ^ fresh;
              t.file_off <- n
            end));
    let parse () =
      match scan t.pending 0 with
      | _, _, Damaged reason -> Error reason
      | records, off, (End | Partial) ->
          t.pending <- String.sub t.pending off (String.length t.pending - off);
          Ok records
    in
    if t.started then parse ()
    else
      match magic_state t.pending with
      | `Short -> Ok []
      | `Bad -> Error "bad magic"
      | `Ok ->
          let m = String.length magic in
          t.started <- true;
          t.pending <- String.sub t.pending m (String.length t.pending - m);
          parse ()
end

(* ---- group commit ------------------------------------------------------------ *)

(** Leader-based fsync batching across concurrently-appending writers.

    Without it, [k] sessions each appending one record cost [k] fsyncs —
    the disk flush dominates and serializes them.  With a group, an append
    writes its bytes and takes a {e ticket}; {!Group.wait} then either
    finds the ticket already covered by someone else's flush, or elects the
    caller leader: the leader snapshots the outstanding ticket range and
    the set of dirty descriptors, fsyncs each descriptor {b once}, and
    advances the durable watermark over every ticket issued before the
    grab.  Appends that landed while the leader was flushing get the next
    batch.  When an fsync of the batch fails, every ticket in it raises
    that error from {!Group.wait}, as an inline fsync would; consecutive
    failed batches share one recorded range. *)
module Group = struct
  type t = {
    m : Mutex.t;
    flushed : Condition.t;
    mutable next : int;  (** next ticket to issue *)
    mutable durable : int;  (** tickets < durable are on stable storage *)
    mutable leader : bool;  (** a leader is currently flushing *)
    mutable dirty : Unix.file_descr list;
    mutable flushing : Unix.file_descr list;  (** the leader's batch while it flushes *)
    mutable syncs : int;  (** fsync calls issued *)
    mutable appends : int;  (** tickets issued *)
    mutable failed : (int * int * exn) list;
        (** failed flushes, newest first: tickets [lo] (inclusive) to [hi]
            (exclusive) and the error their waiters raise *)
  }

  let create () =
    {
      m = Mutex.create ();
      flushed = Condition.create ();
      next = 0;
      durable = 0;
      leader = false;
      dirty = [];
      flushing = [];
      syncs = 0;
      appends = 0;
      failed = [];
    }

  (** Called by a writer after its bytes are in the file: marks [fd] dirty
      and returns the ticket {!wait} must be given before the record may be
      acknowledged. *)
  let register t fd : int =
    Mutex.protect t.m (fun () ->
        let ticket = t.next in
        t.next <- t.next + 1;
        t.appends <- t.appends + 1;
        if not (List.memq fd t.dirty) then t.dirty <- fd :: t.dirty;
        ticket)

  (* Flush every dirty descriptor once; the first fsync error, if any. *)
  let flush_fds t fds : exn option =
    List.fold_left
      (fun err fd ->
        match Unix.fsync fd with
        | () ->
            Mutex.protect t.m (fun () -> t.syncs <- t.syncs + 1);
            err
        | exception (Unix.Unix_error _ as e) -> if Option.is_none err then Some e else err)
      None fds

  (** Block until [ticket]'s record is on stable storage, flushing as
      leader if nobody else is.  Raises the flush's [Unix_error] when the
      fsync covering [ticket] failed, exactly as an inline fsync would. *)
  let rec wait t ticket : unit =
    let lead =
      Mutex.protect t.m (fun () ->
          (* someone is flushing: wait for their broadcast *)
          while t.leader && ticket >= t.durable do
            Condition.wait t.flushed t.m
          done;
          if ticket < t.durable then begin
            List.iter
              (fun (lo, hi, e) -> if lo <= ticket && ticket < hi then raise e)
              t.failed;
            false
          end
          else begin
            t.leader <- true;
            true
          end)
    in
    if lead then begin
      let lo, upto, fds =
        Mutex.protect t.m (fun () ->
            let fds = t.dirty in
            t.dirty <- [];
            t.flushing <- fds;
            (t.durable, t.next, fds))
      in
      let error = flush_fds t fds in
      Mutex.protect t.m (fun () ->
          (match (error, t.failed) with
          | None, _ -> ()
          | Some _, (l, hi, e) :: older when hi = lo -> t.failed <- (l, upto, e) :: older
          | Some e, older -> t.failed <- (lo, upto, e) :: older);
          t.durable <- max t.durable upto;
          t.flushing <- [];
          t.leader <- false;
          Condition.broadcast t.flushed);
      wait t ticket
    end

  (** Flush [fd] now and drop it from the dirty set: a writer about to
      close its descriptor must not leave it for a later leader to fsync
      (fsync on a closed fd is EBADF), and waits for a leader that is
      flushing it already, which may run on another thread.  Best effort:
      an fsync error is ignored.  No acknowledgement depends on this
      flush — a record is acknowledged only after {!wait} settles its
      ticket, and the writers
      closed with records still unsettled (compaction and spill, which
      snapshot first; shutdown) acknowledge nothing through them.  A
      writer dropped after a failed append settles its tickets first. *)
  let forget t fd : unit =
    let was_dirty =
      Mutex.protect t.m (fun () ->
          while List.memq fd t.flushing do
            Condition.wait t.flushed t.m
          done;
          let was_dirty = List.memq fd t.dirty in
          t.dirty <- List.filter (fun d -> not (d == fd)) t.dirty;
          was_dirty)
    in
    if was_dirty then begin
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Mutex.protect t.m (fun () -> t.syncs <- t.syncs + 1)
    end

  let stats t : int * int = Mutex.protect t.m (fun () -> (t.syncs, t.appends))
end

(* ---- appending -------------------------------------------------------------- *)

type t = {
  fd : Unix.file_descr;
  sync : bool;
  group : Group.t option;
  mutable closed : bool;
}

exception Unwritable of { path : string; tail : tail }

(** [open_append ~sync ~path] opens (creating if needed) a segment for
    appending.  An existing segment is first scanned: a torn tail is
    truncated back to its last complete record, so the writer never
    interleaves new records with a partial one; a corrupt segment raises
    {!Unwritable} — appending to untrusted history would launder the
    corruption into apparently-valid state. *)
let open_append ?(sync = true) ?group ~path () : t =
  let size =
    match Unix.stat path with
    | st -> st.Unix.st_size
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> -1
  in
  (* A file shorter than the magic is a crash during segment creation: the
     partial prefix is discarded and the magic rewritten (truncating UP to
     the magic length would pad with zero bytes and corrupt it).  A corrupt
     prefix still refuses. *)
  let fresh = size < String.length magic in
  (if size >= 0 then
     match read ~path with
     | _, Clean -> ()
     | _, Torn { valid_bytes } when not fresh ->
         let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0o644 in
         Fun.protect
           ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
           (fun () ->
             Unix.ftruncate fd valid_bytes;
             if sync then Unix.fsync fd)
     | _, Torn _ -> ()
     | _, (Corrupt _ as tail) -> raise (Unwritable { path; tail }));
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  if fresh then begin
    if size > 0 then Unix.ftruncate fd 0;
    Atomic_io.write_all fd magic;
    if sync then begin
      Unix.fsync fd;
      Atomic_io.fsync_dir (Filename.dirname path)
    end
  end;
  { fd; sync; group; closed = false }

(** Append one record without waiting for stable storage.  The whole frame
    goes down in a single [write].  Returns [Some ticket] when the writer
    belongs to a {!Group}: the record is durable only once {!Group.wait}
    has been given that ticket.  Returns [None] when durability is already
    settled on return — either the fsync ran inline ([sync] without a
    group) or the caller opted out of syncing entirely. *)
let append_ticket (t : t) (payload : string) : int option =
  if t.closed then invalid_arg "Wal.append: writer is closed";
  let len = String.length payload in
  let frame = Bytes.create (record_header_len + len) in
  Bytes.set_int32_le frame 0 (Int32.of_int len);
  Bytes.set_int64_le frame 4 (fnv1a64 payload);
  Bytes.blit_string payload 0 frame record_header_len len;
  Atomic_io.write_all t.fd (Bytes.unsafe_to_string frame);
  if not t.sync then None
  else
    match t.group with
    | None ->
        Unix.fsync t.fd;
        None
    | Some g -> Some (Group.register g t.fd)

(** Append one record, fully durable on return (group writers wait on
    their ticket here). *)
let append (t : t) (payload : string) : unit =
  match (append_ticket t payload, t.group) with
  | Some ticket, Some g -> Group.wait g ticket
  | _ -> ()

(** Force an fsync now regardless of the writer's sync policy — used for
    records whose visibility must not wait for the page cache (the
    follower's fencing ack).  Raises the fsync's [Unix_error]: the caller
    acknowledges on the strength of it. *)
let sync_now (t : t) : unit = if not t.closed then Unix.fsync t.fd

(** Close the writer, with a last fsync when it syncs.  Best effort: errors
    are ignored, so no acknowledgement may depend on this flush.  A caller
    settles every record it acknowledges before closing — through the
    inline fsync of {!append}, {!Group.wait} on the record's ticket, or
    {!sync_now}. *)
let close (t : t) : unit =
  if not t.closed then begin
    t.closed <- true;
    (match t.group with
    | Some g -> Group.forget g t.fd
    | None -> ( try if t.sync then Unix.fsync t.fd with Unix.Unix_error _ -> ()));
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
