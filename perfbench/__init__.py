"""End-to-end benchmark of the EaseIO reproduction; see README.md."""
