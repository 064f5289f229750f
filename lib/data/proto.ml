(** Synthetic perception substrate.

    The paper's benchmarks perceive real images/video/text with CNNs and
    language models.  In this reproduction (see DESIGN.md, substitution 2)
    every symbol class is represented by a fixed random prototype vector and
    a percept is the prototype plus Gaussian noise.  The perception model
    must still {e learn} the class structure from end-to-end (algorithmic)
    supervision only — which is the learning problem Scallop addresses —
    while keeping data generation deterministic and fast.

    [difficulty] scales the noise; classes can also be given systematic
    confusion (a sample of class [a] drawn from class [b]'s prototype with
    some probability), which models perceptual ambiguity. *)

open Scallop_tensor

type t = {
  protos : Nd.t array;  (** one [1×dim] prototype per class *)
  dim : int;
  noise : float;
  confusion : float;  (** probability of sampling a neighboring prototype *)
}

let create ?(noise = 0.4) ?(confusion = 0.0) ~rng ~classes ~dim () =
  { protos = Array.init classes (fun _ -> Nd.randn rng [| 1; dim |]); dim; noise; confusion }

let classes t = Array.length t.protos

(** Sample a percept of class [c]. *)
let sample t rng c =
  let c' =
    if t.confusion > 0.0 && Scallop_utils.Rng.float rng < t.confusion then
      (* confuse with a random other class *)
      (c + 1 + Scallop_utils.Rng.int rng (classes t - 1)) mod classes t
    else c
  in
  Nd.map (fun x -> x +. Scallop_utils.Rng.gaussian ~sigma:t.noise rng) t.protos.(c')
