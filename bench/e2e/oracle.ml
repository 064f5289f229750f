(** Reference answers, computed from the benchmark's own copy of the inputs
    with textbook graph and set algorithms.  Nothing here calls into
    Scallop, so an executor bug cannot make the oracle agree with it.

    Edge weights are probabilities in thousandths (1..999), so every answer
    below is an exact integer. *)

let adjacency ~nodes edges =
  let adj = Array.make nodes [] in
  List.iter (fun (a, b, w) -> adj.(a) <- (b, w) :: adj.(a)) edges;
  adj

(** Widest-path (max–min) reachability: for every node [b] reachable from
    [src] by a path of at least one edge, the largest bottleneck weight over
    such paths — the min-max-prob tag of [reach(b)] under the sessions
    program.  [src] itself appears only if it lies on a cycle.  Sorted by
    node. *)
let widest ~nodes ~src edges : (int * int) list =
  let adj = adjacency ~nodes edges in
  let best = Array.make nodes (-1) and settled = Array.make nodes false in
  List.iter (fun (b, w) -> if w > best.(b) then best.(b) <- w) adj.(src);
  let rec settle () =
    let v = ref (-1) in
    for i = 0 to nodes - 1 do
      if (not settled.(i)) && best.(i) >= 0 && (!v < 0 || best.(i) > best.(!v)) then v := i
    done;
    if !v >= 0 then begin
      let v = !v in
      settled.(v) <- true;
      List.iter
        (fun (b, w) ->
          let c = min best.(v) w in
          if (not settled.(b)) && c > best.(b) then best.(b) <- c)
        adj.(v);
      settle ()
    end
  in
  settle ();
  List.filter_map
    (fun i -> if best.(i) >= 0 then Some (i, best.(i)) else None)
    (List.init nodes Fun.id)

(** Nodes reachable from [src] by a path of at least one edge (BFS). *)
let reachable ~nodes ~src edges : bool array =
  let adj = adjacency ~nodes edges in
  let seen = Array.make nodes false in
  let queue = Queue.create () in
  let visit b =
    if not seen.(b) then begin
      seen.(b) <- true;
      Queue.push b queue
    end
  in
  List.iter (fun (b, _) -> visit b) adj.(src);
  while not (Queue.is_empty queue) do
    List.iter (fun (b, _) -> visit b) adj.(Queue.pop queue)
  done;
  seen

let reach_count ~nodes ~src edges =
  Array.fold_left (fun n r -> if r then n + 1 else n) 0 (reachable ~nodes ~src edges)

(** Size of the set difference [{0..nodes-1} \ reach]. *)
let unreach_count ~nodes ~src edges = nodes - reach_count ~nodes ~src edges

(** Per group: sum and count of the distinct values (relations are sets, so
    a repeated [(g, v)] pair counts once).  Sorted by group. *)
let group_sum_count (items : (int * int) list) : (int * int * int) list =
  let distinct = List.sort_uniq compare items in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (g, v) ->
      let s, c = Option.value (Hashtbl.find_opt tbl g) ~default:(0, 0) in
      Hashtbl.replace tbl g (s + v, c + 1))
    distinct;
  Hashtbl.fold (fun g (s, c) acc -> (g, s, c) :: acc) tbl [] |> List.sort compare
