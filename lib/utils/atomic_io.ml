(** Crash-safe snapshot files.

    A snapshot is a byte payload wrapped in a versioned, checksummed header
    and written with the classic write-to-temp → fsync → rename protocol, so
    a crash at {e any} instant leaves either the previous file intact or the
    new file complete — never a half-written snapshot visible under the
    final name.  On top of single files, {!save}/{!load_latest} manage a
    directory of {e generations}: each save creates [snapshot-NNNNNNNNN.ckpt]
    with the next generation number and prunes old generations beyond a
    retention count, and loading walks generations newest-first, skipping
    any file whose checksum (or header) does not validate — a torn or
    bit-flipped latest snapshot silently falls back to the previous one.

    File layout (all integers little-endian):
    {v
      bytes 0..7    magic    "SCLSNAP1"
      bytes 8..11   version  (u32)
      bytes 12..19  payload length (u64)
      bytes 20..27  FNV-1a 64-bit checksum of the payload (u64)
      bytes 28..    payload
    v} *)

let magic = "SCLSNAP1"
let version = 1
let header_len = 8 + 4 + 8 + 8

(* ---- checksum -------------------------------------------------------------- *)

(** FNV-1a, 64-bit: not cryptographic, but detects the truncations and byte
    flips a torn write or bad sector produces, at memory speed and with no
    dependencies.  [seed] continues a hash: [fnv1a64 ~seed:(fnv1a64 a) b]
    is [fnv1a64 (a ^ b)]. *)
let fnv1a64 ?(seed = 0xCBF29CE484222325L) (s : string) : int64 =
  let h = ref seed in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  !h

(* ---- single-file read/write ------------------------------------------------- *)

type read_error =
  | Missing  (** file does not exist *)
  | Truncated  (** shorter than the header + declared payload length *)
  | Bad_magic  (** not a snapshot file *)
  | Bad_version of int  (** written by an incompatible format version *)
  | Checksum_mismatch  (** payload bytes do not hash to the stored checksum *)

let read_error_string = function
  | Missing -> "missing"
  | Truncated -> "truncated"
  | Bad_magic -> "bad magic"
  | Bad_version v -> Printf.sprintf "unsupported version %d" v
  | Checksum_mismatch -> "checksum mismatch"

let encode (payload : string) : string =
  let b = Buffer.create (header_len + String.length payload) in
  Buffer.add_string b magic;
  Buffer.add_int32_le b (Int32.of_int version);
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  Buffer.add_int64_le b (fnv1a64 payload);
  Buffer.add_string b payload;
  Buffer.contents b

let decode (raw : string) : (string, read_error) result =
  let len = String.length raw in
  if len < header_len then Error Truncated
  else if String.sub raw 0 8 <> magic then Error Bad_magic
  else
    let v = Int32.to_int (String.get_int32_le raw 8) in
    if v <> version then Error (Bad_version v)
    else
      let plen = Int64.to_int (String.get_int64_le raw 12) in
      if plen < 0 || len < header_len + plen then Error Truncated
      else
        let payload = String.sub raw header_len plen in
        if fnv1a64 payload <> String.get_int64_le raw 20 then Error Checksum_mismatch
        else Ok payload

let fsync_dir dir =
  (* Persist the rename itself.  Directory fsync is Linux-portable; on
     filesystems that reject it, the rename is still atomic — only its
     durability window widens — so errors are ignored. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(** Write all of [s] to [fd], looping over short writes. *)
let write_all fd (s : string) =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd s !written (n - !written)
  done

(** [write_file ~path payload] atomically replaces [path] with an encoded
    snapshot: the bytes are written to [path ^ ".tmp"], fsynced, renamed
    over [path], and the directory entry is fsynced.  A reader (or a
    restart) sees either the old complete file or the new complete file. *)
let write_file ~path (payload : string) : unit =
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd (encode payload);
      Unix.fsync fd);
  Unix.rename tmp path;
  fsync_dir (Filename.dirname path)

(** [read_file ~path] validates header and checksum and returns the payload. *)
let read_file ~path : (string, read_error) result =
  match open_in_bin path with
  | exception Sys_error _ -> Error Missing
  | ic ->
      let raw = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic) in
      decode raw

(* ---- numbered file families ------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(** Files named [prefix ^ NNNNNNNNN ^ suffix] in one directory, numbered
    by a nine-digit zero-padded counter: snapshot generations here, WAL
    segments in {!Scallop_incr.Durable}, ship segments in
    {!Scallop_incr.Replica}. *)
module Family (N : sig
  val prefix : string
  val suffix : string
end) =
struct
  let name k = Printf.sprintf "%s%09d%s" N.prefix k N.suffix
  let path ~dir k = Filename.concat dir (name k)

  let of_name name =
    let p = String.length N.prefix in
    if
      String.length name = p + 9 + String.length N.suffix
      && String.starts_with ~prefix:N.prefix name
      && String.ends_with ~suffix:N.suffix name
    then int_of_string_opt (String.sub name p 9)
    else None

  (** Numbers present in [dir], ascending ([] if it does not exist). *)
  let list ~dir : int list =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names -> Array.to_list names |> List.filter_map of_name |> List.sort compare

  (** Delete every member numbered [<= k]. *)
  let remove_upto ~dir k =
    List.iter
      (fun g -> if g <= k then try Sys.remove (path ~dir g) with Sys_error _ -> ())
      (list ~dir)
end

(* ---- generation rotation ----------------------------------------------------- *)

module Generations = Family (struct
  let prefix = "snapshot-"
  let suffix = ".ckpt"
end)

(** [save_at ~dir ~gen ~keep payload] installs [payload] as generation
    [gen] {e exactly} — a replication follower mirroring the primary's
    snapshot numbering must not let the directory pick its own — then
    prunes all but the newest [keep] generations.  Pruning happens
    {e after} the new snapshot is durable, so at least one valid snapshot
    always survives a crash anywhere in here.  Re-installing an existing
    generation atomically replaces it. *)
let save_at ~dir ~gen ?(keep = 3) (payload : string) : unit =
  if keep < 1 then invalid_arg "Atomic_io.save_at: keep must be >= 1";
  if gen < 0 then invalid_arg "Atomic_io.save_at: negative generation";
  mkdir_p dir;
  write_file ~path:(Generations.path ~dir gen) payload;
  let gens = Generations.list ~dir in
  let excess = List.length gens - keep in
  if excess > 0 then Generations.remove_upto ~dir (List.nth gens (excess - 1))

(** [save ~dir ~keep payload] writes the next generation snapshot into
    [dir] (created if needed) as {!save_at} does, and returns the
    generation number written. *)
let save ~dir ?keep (payload : string) : int =
  let gen = match List.rev (Generations.list ~dir) with g :: _ -> g + 1 | [] -> 0 in
  save_at ~dir ~gen ?keep payload;
  gen

(** [load_latest ~dir ~decode] returns the newest generation that both
    validates and decodes, as [(generation, decode payload)] — walking
    backwards over corrupt, truncated or undecodable generations ([decode]
    signals the latter with {!Codec.Decode}) — or [None] when there is
    none. *)
let load_latest ~dir ~decode : (int * 'a) option =
  let rec try_gens = function
    | [] -> None
    | g :: older -> (
        match read_file ~path:(Generations.path ~dir g) with
        | Error _ -> try_gens older
        | Ok payload -> (
            match decode payload with
            | v -> Some (g, v)
            | exception Codec.Decode _ -> try_gens older))
  in
  try_gens (List.rev (Generations.list ~dir))

(** Remove every snapshot (and temp file) in [dir]; used by [--resume]-less
    fresh starts.  The directory itself is kept. *)
let clear ~dir : unit =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          if Generations.of_name name <> None || Filename.check_suffix name ".ckpt.tmp" then
            try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        names
