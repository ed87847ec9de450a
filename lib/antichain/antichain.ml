module Dfg = Mps_dfg.Dfg
module Levels = Mps_dfg.Levels
module Reachability = Mps_dfg.Reachability
module Pattern = Mps_pattern.Pattern

type t = int list

let of_sorted_prefix nodes len =
  let rec go i acc = if i < 0 then acc else go (i - 1) (nodes.(i) :: acc) in
  go (len - 1) []

let of_nodes reach nodes =
  let sorted = List.sort Int.compare nodes in
  let deduped = List.sort_uniq Int.compare nodes in
  if List.length sorted <> List.length deduped then
    invalid_arg "Antichain.of_nodes: duplicate node";
  if not (Reachability.is_antichain reach deduped) then
    invalid_arg "Antichain.of_nodes: nodes are not pairwise parallelizable";
  deduped

let nodes t = t
let size = List.length
let mem t i = List.mem i t
let is_executable ~capacity t = size t <= capacity
let pattern g t = Pattern.of_antichain_colors g t
let span levels t = if t = [] then 0 else Levels.span levels t
let span_bound levels t = Levels.asap_max levels + span levels t + 1
let compare = List.compare Int.compare
let equal a b = compare a b = 0

let pp g ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       (fun ppf i -> Format.pp_print_string ppf (Dfg.name g i)))
    t
