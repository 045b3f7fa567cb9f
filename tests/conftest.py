def rows_to_csv(rows):
    """rows: (student, question, kcs, correct, timestamp) tuples."""
    lines = ["student_id,question_id,kc_ids,correct,timestamp"]
    for r in rows:
        lines.append(",".join(str(x) for x in r))
    return "\n".join(lines) + "\n"


def late_question_csv(question):
    """12 students who each answer ``question`` only as their last interaction, so it is never in train."""
    rows = [(f"S{n}", f"Q{ts}", "K0", (ts + n) % 2, ts) for n in range(12) for ts in range(10)]
    return rows_to_csv(rows + [(f"S{n}", question, "K0", 1, 99) for n in range(12)])


def grid_rows(students, questions, kc_of=None, correct_fn=None):
    """Every student answers every question once, timestamps by question order."""
    kc_of = kc_of or {}
    rows = []
    for s in students:
        for ts, q in enumerate(questions):
            correct = correct_fn(s, q) if correct_fn else 1
            rows.append((s, q, kc_of.get(q, "K0"), int(correct), ts))
    return rows
