(** Child processes and the closed-loop line client.

    One thread drives everything: it writes request lines to a child's
    stdin and reads replies from its stdout, keeping at most [window]
    requests outstanding and sending the next line only after the oldest
    request's [done] line arrived. *)

let now = Scallop_utils.Monotonic.now

type proc = {
  pid : int;
  oc : out_channel;
  ic : in_channel;
  mutable sent : int;  (** request lines written; the next request's id *)
  mutable reaped : bool;
}

(* Every child we started, so an early exit can still stop and reap it. *)
let children : proc list ref = ref []

let spawn ~exe ~args ~log : proc =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) in_r out_w err in
  List.iter Unix.close [ in_r; out_w; err ];
  let p =
    {
      pid;
      oc = Unix.out_channel_of_descr in_w;
      ic = Unix.in_channel_of_descr out_r;
      sent = 0;
      reaped = false;
    }
  in
  children := p :: !children;
  p

let send p line =
  output_string p.oc line;
  output_char p.oc '\n';
  flush p.oc;
  p.sent <- p.sent + 1

exception Died of string

type reply = { id : int; ok : bool; status : string; rows : string list }

(** Read up to and including the next [done] line. *)
let read_reply p : reply =
  let rec go rows =
    match input_line p.ic with
    | exception End_of_file -> raise (Died "child closed its stdout")
    | l -> (
        match Reply.classify l with
        | Reply.Out (_, row) -> go (row :: rows)
        | Reply.Done (id, ok, status) -> { id; ok; status; rows = List.rev rows }
        | Reply.Other _ -> go rows)
  in
  go []

let wait p =
  if not p.reaped then begin
    p.reaped <- true;
    ignore (Unix.waitpid [] p.pid)
  end

(** Close stdin, drain stdout to EOF, reap. *)
let finish p =
  close_out_noerr p.oc;
  (try
     while true do
       ignore (input_line p.ic)
     done
   with End_of_file | Sys_error _ -> ());
  close_in_noerr p.ic;
  wait p

let sigkill p =
  if not p.reaped then begin
    (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
    wait p
  end;
  close_out_noerr p.oc;
  close_in_noerr p.ic

let kill_all () = List.iter sigkill !children

(** Peak resident set ([VmHWM]) of a live process, in kB. *)
let vm_hwm_kb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec find () =
    match input_line ic with
    | exception End_of_file -> 0
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) find

(* ---- the closed loop --------------------------------------------------------------- *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable writes : int;
  mutable samples : (float * float) list;  (** (completion time, send → done), seconds *)
  mutable first_send : float;
  mutable last_done : float;
}

let empty_result () =
  {
    attempted = 0;
    failed = 0;
    writes = 0;
    samples = [];
    first_send = Float.nan;
    last_done = Float.nan;
  }

(** Keep [window] requests outstanding: pull ops from [next] until it
    returns [None] or [stop ()] holds, then drain.  Every reply is checked
    against its op's expectation; a mismatch or an error reply is a
    failure.  [on_fail] sees the op and its reply. *)
let closed_loop ?(on_fail = fun _ _ -> ()) p ~window ~(next : unit -> Gen.op option)
    ~(stop : unit -> bool) (r : result) =
  let outstanding = Queue.create () in
  let exhausted = ref false in
  let rec fill () =
    if Queue.length outstanding < window && (not !exhausted) && not (stop ()) then
      match next () with
      | None -> exhausted := true
      | Some op ->
          let id = p.sent in
          let t = now () in
          if Float.is_nan r.first_send then r.first_send <- t;
          send p op.Gen.line;
          Queue.push (id, t, op) outstanding;
          fill ()
  in
  fill ();
  while not (Queue.is_empty outstanding) do
    let id, t, op = Queue.pop outstanding in
    let reply = read_reply p in
    let t_done = now () in
    r.last_done <- t_done;
    r.attempted <- r.attempted + 1;
    if reply.id <> id then
      raise (Died (Printf.sprintf "reply %d arrived for request %d" reply.id id));
    if not (Gen.check op ~ok:reply.ok ~rows:reply.rows) then begin
      r.failed <- r.failed + 1;
      on_fail op reply
    end;
    if op.Gen.kind = Gen.Write then r.writes <- r.writes + 1;
    r.samples <- (t_done, t_done -. t) :: r.samples;
    fill ()
  done

let ops_of_list l =
  let rest = ref l in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
        rest := tl;
        Some x
