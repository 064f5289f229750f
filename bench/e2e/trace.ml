(** Spans the benchmark records around its own calls into each layer.

    A request is a root span; each call it makes into a layer is a child
    span naming that layer.  Spans are kept in memory (appends take a lock:
    query execution records from a worker domain) and written as JSON lines
    when the run ends.  With [enabled = false] nothing is recorded. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root *)
  req : int;  (** the root span's id; shared by every span of one request *)
  t0 : float;  (** seconds, monotonic *)
  t1 : float;
}

type t = { enabled : bool; m : Mutex.t; mutable spans : span list; next : int Atomic.t }

let create ~enabled = { enabled; m = Mutex.create (); spans = []; next = Atomic.make 0 }
let fresh_id t = Atomic.fetch_and_add t.next 1

let add t ~id ~name ~parent ~req t0 t1 =
  if t.enabled then begin
    Mutex.lock t.m;
    t.spans <- { id; name; parent; req; t0; t1 } :: t.spans;
    Mutex.unlock t.m
  end

(** A child span of request [req] (whose root span has id [req]). *)
let child t ~req name t0 t1 =
  if t.enabled && t1 > t0 then add t ~id:(fresh_id t) ~name ~parent:req ~req t0 t1

let spans t =
  Mutex.lock t.m;
  let l = t.spans in
  Mutex.unlock t.m;
  List.rev l

(* ---- analysis ------------------------------------------------------------------ *)

type report = {
  roots : int;
  root_time : float;  (** summed duration of root spans, seconds *)
  by_name : (string * float) list;  (** summed child duration per layer span name *)
  unaccounted : float;  (** root time no child span covers *)
  violations : int;
      (** children outside their root's interval, children summing past
          their root, and spans whose parent is not a root *)
}

(* Monotonic clock readings are exact to well under this. *)
let eps = 1e-7

let analyse ~root (spans : span list) : report =
  let kids = Hashtbl.create 1024 and roots = ref [] in
  List.iter
    (fun s ->
      if String.equal s.name root then roots := s :: !roots else Hashtbl.add kids s.parent s)
    spans;
  let root_ids = Hashtbl.create 1024 in
  List.iter (fun r -> Hashtbl.replace root_ids r.id ()) !roots;
  let violations = ref 0 and by_name = Hashtbl.create 16 in
  let covered = ref 0.0 and total = ref 0.0 in
  Hashtbl.iter (fun parent _ -> if not (Hashtbl.mem root_ids parent) then incr violations) kids;
  List.iter
    (fun r ->
      let dur = r.t1 -. r.t0 in
      total := !total +. dur;
      let sum =
        List.fold_left
          (fun acc k ->
            if k.t0 < r.t0 -. eps || k.t1 > r.t1 +. eps || k.t1 < k.t0 then incr violations;
            let d = k.t1 -. k.t0 in
            let sofar = Option.value ~default:0.0 (Hashtbl.find_opt by_name k.name) in
            Hashtbl.replace by_name k.name (sofar +. d);
            acc +. d)
          0.0 (Hashtbl.find_all kids r.id)
      in
      if sum > dur +. eps then incr violations;
      covered := !covered +. sum)
    !roots;
  {
    roots = List.length !roots;
    root_time = !total;
    by_name = Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [] |> List.sort compare;
    unaccounted = !total -. !covered;
    violations = !violations;
  }

let write_jsonl path (spans : span list) =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) Float.infinity spans in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d,\"req\":%d}\n" s.id
        s.name
        (1e6 *. (s.t0 -. origin))
        (1e6 *. (s.t1 -. origin))
        s.parent s.req)
    (List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) spans);
  close_out oc
