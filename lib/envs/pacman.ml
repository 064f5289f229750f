(** The PacMan-Maze reinforcement-learning environment (paper Sec. 2).

    An implicit [grid × grid] arena with one actor, one goal and up to
    [max_enemies] enemies at randomized positions.  Observations are
    per-cell percepts: each cell is one of {empty, actor, goal, enemy},
    rendered as a noisy prototype vector (the paper renders a 200×200 RGB
    image that a CNN then crops per cell — our observation is the per-cell
    crop stream directly; see DESIGN.md substitutions).  The agent picks
    one of {up, down, right, left}; the episode ends on reaching the goal
    (+1 reward), hitting an enemy, or exhausting the step budget. *)

open Scallop_tensor

type cell = Empty | Actor | Goal | Enemy

type action = Up | Down | Right | Left

let action_of_index = function 0 -> Up | 1 -> Down | 2 -> Right | _ -> Left

type t = {
  grid : int;
  max_enemies : int;
  max_steps : int;
  proto : Scallop_data.Proto.t;  (** 4 classes: Empty/Actor/Goal/Enemy *)
  rng : Scallop_utils.Rng.t;
  mutable actor : int * int;
  mutable goal : int * int;
  mutable enemies : (int * int) list;
  mutable steps : int;
  mutable done_ : bool;
}

let cell_class = function Empty -> 0 | Actor -> 1 | Goal -> 2 | Enemy -> 3

let create ?(grid = 5) ?(max_enemies = 5) ?(max_steps = 30) ?(noise = 0.3) ?(dim = 12) ~seed () =
  let rng = Scallop_utils.Rng.create seed in
  {
    grid;
    max_enemies;
    max_steps;
    proto = Scallop_data.Proto.create ~noise ~rng ~classes:4 ~dim ();
    rng;
    actor = (0, 0);
    goal = (0, 0);
    enemies = [];
    steps = 0;
    done_ = false;
  }

let cell_at t (x, y) : cell =
  if t.actor = (x, y) then Actor
  else if t.goal = (x, y) then Goal
  else if List.mem (x, y) t.enemies then Enemy
  else Empty

(** True ground-truth reachability: is there an enemy-free path from the
    actor to the goal?  Used to guarantee solvable episodes. *)
let solvable t =
  let blocked p = List.mem p t.enemies in
  let seen = Hashtbl.create 32 in
  let q = Queue.create () in
  if not (blocked t.actor) then begin
    Queue.add t.actor q;
    Hashtbl.replace seen t.actor ()
  end;
  let found = ref false in
  while not (Queue.is_empty q) do
    let (x, y) = Queue.pop q in
    if (x, y) = t.goal then found := true;
    List.iter
      (fun (dx, dy) ->
        let p = (x + dx, y + dy) in
        let px, py = p in
        if
          px >= 0 && px < t.grid && py >= 0 && py < t.grid
          && (not (blocked p))
          && not (Hashtbl.mem seen p)
        then begin
          Hashtbl.replace seen p ();
          Queue.add p q
        end)
      [ (0, 1); (0, -1); (1, 0); (-1, 0) ]
  done;
  !found

let reset t =
  let rec place () =
    let cell () = (Scallop_utils.Rng.int t.rng t.grid, Scallop_utils.Rng.int t.rng t.grid) in
    t.actor <- cell ();
    t.goal <- cell ();
    let n_enemies = Scallop_utils.Rng.int t.rng (t.max_enemies + 1) in
    t.enemies <- [];
    for _ = 1 to n_enemies do
      let e = cell () in
      if e <> t.actor && e <> t.goal && not (List.mem e t.enemies) then
        t.enemies <- e :: t.enemies
    done;
    if t.actor = t.goal || not (solvable t) then place ()
  in
  place ();
  t.steps <- 0;
  t.done_ <- false

(** Observation: one noisy percept per cell, row-major [(grid*grid) × dim]. *)
let observe t : Nd.t =
  let rows = ref [] in
  for y = t.grid - 1 downto 0 do
    for x = t.grid - 1 downto 0 do
      rows := Scallop_data.Proto.sample t.proto t.rng (cell_class (cell_at t (x, y))) :: !rows
    done
  done;
  Nd.stack_rows !rows

(** Ground-truth cell grid (for diagnostics / oracle baselines). *)
let ground_truth t : cell array array =
  Array.init t.grid (fun y -> Array.init t.grid (fun x -> cell_at t (x, y)))

type step_result = { reward : float; finished : bool }

let step t (a : action) : step_result =
  if t.done_ then { reward = 0.0; finished = true }
  else begin
    t.steps <- t.steps + 1;
    let (x, y) = t.actor in
    let nx, ny =
      match a with
      | Up -> (x, y + 1)
      | Down -> (x, y - 1)
      | Right -> (x + 1, y)
      | Left -> (x - 1, y)
    in
    let nx = max 0 (min (t.grid - 1) nx) and ny = max 0 (min (t.grid - 1) ny) in
    t.actor <- (nx, ny);
    if t.actor = t.goal then begin
      t.done_ <- true;
      { reward = 1.0; finished = true }
    end
    else if List.mem t.actor t.enemies then begin
      t.done_ <- true;
      { reward = 0.0; finished = true }
    end
    else if t.steps >= t.max_steps then begin
      t.done_ <- true;
      { reward = 0.0; finished = true }
    end
    else { reward = 0.0; finished = false }
  end
