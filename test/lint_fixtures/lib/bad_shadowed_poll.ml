(* R7 fixture: a local value that shares its name with a polling
   function does not poll.  [sweep_budgeted]'s nested loop reads the
   array [run], never calls [run], so the loop is unpolled.  Parsed by
   the linter only, never compiled. *)

let run ~budget x =
  Budget.tick budget;
  x

let sweep_budgeted ~budget xs =
  Budget.tick budget;
  let run = Array.copy xs in
  let total = ref 0 in
  for i = 0 to Array.length run - 1 do
    for j = 0 to i do
      total := !total + run.(j)
    done
  done;
  !total
